package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
)

// Every combination of optional interfaces survives wrapping, so the
// router and the wire server branch the same way traced and untraced.
func TestWithCapsCoversEveryCombination(t *testing.T) {
	for caps := 0; caps < 1<<4; caps++ {
		if got := capsOf(withCaps(&tracedAPI{}, caps)); got != caps {
			t.Errorf("withCaps(%04b) implements %04b", caps, got)
		}
	}
}

// The values the stack actually wraps keep their interface sets, and
// so do the trace-scoped views derived from them.
func TestWrappedStackValuesKeepInterfaceSets(t *testing.T) {
	router := shard.NewRouter(shard.Config{})
	defer router.Close()
	wc := wire.Dial("127.0.0.1:1", wire.Options{})
	defer wc.Close()
	durable := queue.NewService(queue.Config{Durability: &queue.Durability{
		Store: blob.NewStore(blob.Config{}), Bucket: "j", Key: "k"}})
	values := map[string]queue.API{
		"wire client":   wc,
		"router":        router,
		"router view":   router.WithTrace("t"),
		"queue service": queue.NewService(queue.Config{}),
		"durable shard": durable,
	}
	tr := newTracer()
	for name, v := range values {
		w := wrapQueue(v, tr, layerWire, "")
		if got, want := capsOf(w), capsOf(v); got != want {
			t.Errorf("%s: wrapped implements %04b, unwrapped %04b", name, got, want)
		}
		ts, ok := v.(queue.TraceScoper)
		if !ok {
			continue
		}
		scoped := w.(queue.TraceScoper).WithTrace("x")
		if got, want := capsOf(scoped), capsOf(ts.WithTrace("x")); got != want {
			t.Errorf("%s: wrapped scoped view implements %04b, unwrapped %04b", name, got, want)
		}
	}
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.inputs(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.inputs(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.inputs(8)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInputs(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w.name)
		}
		if sameInputs(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

func sameInputs(a, b []map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for name, data := range a[i] {
			if !bytes.Equal(data, b[i][name]) {
				return false
			}
		}
	}
	return true
}

// A child span is attributed to the innermost parent on its queue that
// contains it, and self time is what the children leave uncovered.
func TestCoveredPicksInnermostContainingParent(t *testing.T) {
	parents := []span{
		{start: 0, end: 100, queue: "q"},
		{start: 10, end: 50, queue: "q"},
		{start: 0, end: 100, queue: "other"},
	}
	children := []span{
		{start: 20, end: 30, queue: "q"},
		{start: 60, end: 90, queue: "q"},
		{start: 40, end: 45, queue: "q"},
	}
	got := covered(parents, children, false)
	want := []int64{30, 15, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parent %d covered %d, want %d", i, got[i], want[i])
		}
	}
	if self := selfSum(parents, got); self != 100+40+100-45 {
		t.Errorf("self time %d", self)
	}
}

// A short job-stream run through the whole stack, untraced and then
// traced, passes every output and accounting check.
func TestJobStreamPassesChecks(t *testing.T) {
	w, _ := findWorkload("job-stream")
	inputs, err := w.inputs(1)
	if err != nil {
		t.Fatal(err)
	}
	var passes []*pass
	for _, traced := range []bool{false, true} {
		p, err := newPass(w, inputs, inputs, traced)
		if err != nil {
			t.Fatal(err)
		}
		p.run(300 * time.Millisecond)
		p.s.close()
		passes = append(passes, p)
	}
	compareCounts(passes[0], passes[1])
	perLayer(passes[1], passes[0])
	for _, p := range passes {
		if p.tasks == 0 || len(p.failures) > 0 {
			t.Errorf("traced=%v: %d tasks, failures %v", p.t != nil, p.tasks, p.failures)
		}
	}
}
