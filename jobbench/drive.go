package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/telemetry"
)

const (
	// pollInterval is how often a client asks GET /jobs/{id} whether its
	// job has completed.
	pollInterval = time.Millisecond
	// jobTimeout bounds one job; a job that exceeds it counts as failed.
	jobTimeout = 60 * time.Second
	// setupReps is how many times a pass builds the stack to time setup;
	// one setup takes about a millisecond, so the median needs many.
	setupReps = 51
)

// jobRun is one job as the load generator saw it. Times are
// nanoseconds since the pass epoch.
type jobRun struct {
	id, trace      string
	input          int
	tasks          int
	post, accepted int64
	seen           int64
	blobSubmitNS   int64 // env blob time inside the submit round trip
	status         broker.Status
	cost           broker.CostReport
	err            error
}

func (j *jobRun) ok() bool { return j.err == nil }

func (j *jobRun) makespan() time.Duration { return time.Duration(j.seen - j.post) }

func (j *jobRun) submit() time.Duration { return time.Duration(j.accepted - j.post) }

// pass is one run of one workload against one freshly built stack.
type pass struct {
	w        workloadSpec
	cfg      stackConfig
	inputs   []map[string][]byte
	want     []map[string][]byte
	s        *stack
	t        *tracer // nil when untraced
	epoch    time.Time
	setup    []float64
	jobs     []*jobRun
	windows  []interval
	inside   counters // summed over timed windows
	tasks    int      // tasks of jobs that were submitted
	failures []string // failed checks, one line each
	failed   int      // failed tasks and checks, toward error_rate
}

func newPass(w workloadSpec, inputs, want []map[string][]byte, traced bool) (*pass, error) {
	n := runtime.NumCPU()
	cfg := stackConfig{shards: n, instances: w.instances, clients: w.clients}
	if cfg.instances == 0 {
		cfg.instances = n
	}
	if cfg.clients == 0 {
		cfg.clients = n
	}
	p := &pass{w: w, cfg: cfg, inputs: inputs, want: want}
	if traced {
		p.t = newTracer()
	}
	s, setup, err := timedSetup(cfg, p.t, setupReps)
	if err != nil {
		return nil, err
	}
	p.s, p.setup, p.epoch = s, setup, time.Now()
	if p.t != nil {
		p.epoch = p.t.epoch
	}
	return p, nil
}

func (p *pass) now() int64 { return int64(time.Since(p.epoch)) }

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
	p.failed++
}

// run drives the closed loop for the given measured time. With one
// client every job is its own timed window and is checked between
// windows; with several, one window spans the whole stream and every
// job is checked after it.
func (p *pass) run(measure time.Duration) {
	if p.cfg.clients == 1 {
		var spent time.Duration
		for k := 0; spent < measure; k++ {
			// Every job starts from a collected heap, so one job's
			// garbage is not collected during the next one's window.
			runtime.GC()
			before := p.begin()
			j := p.runJob(k % len(p.inputs))
			p.end(before)
			p.jobs = append(p.jobs, j)
			spent += time.Duration(j.seen - j.post)
			p.checkJob(j)
			p.checkCounts(before, []*jobRun{j})
			p.dropJobData(j)
		}
		return
	}
	before := p.begin()
	deadline := time.Now().Add(measure)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range p.cfg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				j := p.runJob((c + k*p.cfg.clients) % len(p.inputs))
				mu.Lock()
				p.jobs = append(p.jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.end(before)
	for _, j := range p.jobs {
		p.checkJob(j)
	}
	p.checkCounts(before, p.jobs)
}

// begin opens a timed window; end closes it and adds what the
// registries counted inside it to the pass totals.
func (p *pass) begin() counters {
	p.windows = append(p.windows, interval{start: p.now()})
	return takeCounters(p.s, p.w.app)
}

func (p *pass) end(before counters) {
	p.windows[len(p.windows)-1].end = p.now()
	p.inside = p.inside.plus(takeCounters(p.s, p.w.app).minus(before))
}

// runJob submits one job over HTTP and polls until the client sees it
// completed, as a user would.
func (p *pass) runJob(input int) *jobRun {
	files := p.inputs[input]
	j := &jobRun{input: input, tasks: len(files)}
	req := broker.JobRequest{App: p.w.app, Files: files}
	blobBefore := readHists(p.s.blobReg).total()
	j.post = p.now()
	st, err := p.s.client.Submit(req)
	j.accepted = p.now()
	j.blobSubmitNS = readHists(p.s.blobReg).total() - blobBefore
	if err != nil {
		j.seen, j.err = j.accepted, fmt.Errorf("submit: %w", err)
		return j
	}
	j.id, j.trace = st.ID, st.Trace
	st, err = p.s.client.WaitForCompletion(st.ID, jobTimeout, pollInterval)
	j.seen = p.now()
	j.status, j.err = st, err
	return j
}

// checkJob verifies one finished job: every task done and none dead,
// every output equal to the reference, and the queue bill the broker
// read over the wire equal to the router's own count.
func (p *pass) checkJob(j *jobRun) {
	if !j.ok() {
		p.fail("job %s: %v", j.id, j.err)
		p.failed += j.tasks - j.status.Done
		return
	}
	if j.status.Done != j.tasks || j.status.Dead != 0 {
		p.fail("job %s: done=%d dead=%d of %d tasks", j.id, j.status.Done, j.status.Dead, j.tasks)
		p.failed += j.tasks - j.status.Done + j.status.Dead
	}
	outs, err := p.s.client.Outputs(j.id)
	if err != nil {
		p.fail("job %s: outputs: %v", j.id, err)
		return
	}
	wrong := 0
	for name, want := range p.want[j.input] {
		if got, ok := outs[name]; !ok || !bytes.Equal(got, want) {
			wrong++
		}
	}
	if wrong > 0 {
		p.fail("job %s: %d outputs differ from the reference", j.id, wrong)
		p.failed += wrong
	}
	cost, err := p.s.client.Cost(j.id)
	if err != nil {
		p.fail("job %s: cost: %v", j.id, err)
		return
	}
	j.cost = cost
	if direct := p.s.jobRequests(j.id); cost.QueueRequests != direct {
		p.fail("job %s: queue requests over wire %d != router's %d", j.id, cost.QueueRequests, direct)
	}
}

// checkCounts compares what the executor and the catalog saw inside the
// timed window with the tasks the jobs carried.
func (p *pass) checkCounts(before counters, jobs []*jobRun) {
	d := takeCounters(p.s, p.w.app).minus(before)
	tasks := 0
	for _, j := range jobs {
		tasks += j.tasks
	}
	p.tasks += tasks
	if d.execCalls != int64(tasks) {
		p.fail("executor ran %d times for %d tasks", d.execCalls, tasks)
	}
	if d.samples != int64(tasks) {
		p.fail("catalog gained %d samples for %d tasks", d.samples, tasks)
	}
}

// dropJobData deletes a checked batch job's buckets so that memory
// stays flat from one job to the next.
func (p *pass) dropJobData(j *jobRun) {
	if j.id == "" {
		return
	}
	_ = p.s.blob.DeleteBucket(j.id + "-input")
	_ = p.s.blob.DeleteBucket(j.id + "-output")
}

// counters is a point-in-time reading of the process and of every
// registry the per-layer figures come from.
type counters struct {
	alloc     uint64
	cpuNS     int64 // process user + system CPU time
	execCalls int64
	execNS    int64
	samples   int64
	blobOps   histSet
	jrnOps    histSet
	blobUse   blob.Usage
	jrnUse    blob.Usage
	queueOps  map[string]int64
}

// histSet is the raw state of one histogram per operation.
type histSet map[string]histState

type histState struct {
	sum     int64
	buckets []int64
}

var blobOps = []string{"put", "put_if", "append", "get", "delete", "list"}

// queueOps are the shard operations whose counts follow from the inputs
// alone: one staging send per task, and one report batch per worker
// receive batch, which is always full because a job's tasks are all
// staged before its fleet starts.
var queueOps = []string{"send", "send_batch"}

func takeCounters(s *stack, app string) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		alloc:     ms.TotalAlloc,
		cpuNS:     processCPU(),
		execCalls: s.exec.calls.Load(),
		execNS:    s.exec.nanos.Load(),
		blobOps:   readHists(s.blobReg),
		jrnOps:    histSet{},
		blobUse:   s.blob.Usage(),
		queueOps:  map[string]int64{},
	}
	if st, ok := s.catalog.Stats(app, s.instanceType); ok {
		c.samples = st.Count
	}
	// Usage is the counter the stores' blob_bytes_in and blob_requests
	// gauges render; it is read directly.
	for i, reg := range s.journalRegs {
		c.jrnOps = c.jrnOps.plus(readHists(reg))
		c.jrnUse = addUsage(c.jrnUse, s.journals[i].Usage(), 1)
	}
	for i := range s.shards {
		for _, op := range queueOps {
			name := fmt.Sprintf("queue_op_ns{svc=%q,op=%q}", fmt.Sprintf("s%d", i), op)
			c.queueOps[op] += s.queueReg.Histogram(name).Count()
		}
	}
	return c
}

func readHists(reg *telemetry.Registry) histSet {
	hs := histSet{}
	for _, op := range blobOps {
		h := reg.Histogram(telemetry.Label("blob_op_ns", "op", op))
		hs[op] = histState{sum: int64(h.Sum()), buckets: h.BucketCounts()}
	}
	return hs
}

// total is the time recorded across every operation.
func (a histSet) total() int64 {
	var n int64
	for _, h := range a {
		n += h.sum
	}
	return n
}

func (a histSet) combine(b histSet, sign int64) histSet {
	out := histSet{}
	for _, op := range blobOps {
		x, y := a[op], b[op]
		st := histState{sum: x.sum + sign*y.sum, buckets: make([]int64, max(len(x.buckets), len(y.buckets)))}
		for i := range st.buckets {
			if i < len(x.buckets) {
				st.buckets[i] += x.buckets[i]
			}
			if i < len(y.buckets) {
				st.buckets[i] += sign * y.buckets[i]
			}
		}
		out[op] = st
	}
	return out
}

func (a histSet) plus(b histSet) histSet { return a.combine(b, 1) }

// hist rebuilds a histogram from raw state, for quantiles.
func (a histSet) hist(op string) *telemetry.Histogram {
	h := telemetry.NewHistogram()
	st := a[op]
	h.Merge(st.sum, st.buckets)
	return h
}

func (a histSet) count(op string) int64 {
	var n int64
	for _, c := range a[op].buckets {
		n += c
	}
	return n
}

func addUsage(a, b blob.Usage, sign int64) blob.Usage {
	a.PutRequests += sign * b.PutRequests
	a.GetRequests += sign * b.GetRequests
	a.ListRequests += sign * b.ListRequests
	a.DeleteRequests += sign * b.DeleteRequests
	a.BytesIn += sign * b.BytesIn
	a.BytesOut += sign * b.BytesOut
	return a
}

func (c counters) combine(d counters, sign int64) counters {
	out := counters{
		alloc:     uint64(int64(c.alloc) + sign*int64(d.alloc)),
		cpuNS:     c.cpuNS + sign*d.cpuNS,
		execCalls: c.execCalls + sign*d.execCalls,
		execNS:    c.execNS + sign*d.execNS,
		samples:   c.samples + sign*d.samples,
		blobOps:   c.blobOps.combine(d.blobOps, sign),
		jrnOps:    c.jrnOps.combine(d.jrnOps, sign),
		blobUse:   addUsage(c.blobUse, d.blobUse, sign),
		jrnUse:    addUsage(c.jrnUse, d.jrnUse, sign),
		queueOps:  map[string]int64{},
	}
	for op, n := range c.queueOps {
		out.queueOps[op] += n
	}
	for op, n := range d.queueOps {
		out.queueOps[op] += sign * n
	}
	return out
}

func (c counters) plus(d counters) counters  { return c.combine(d, 1) }
func (c counters) minus(d counters) counters { return c.combine(d, -1) }
