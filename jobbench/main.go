// Command jobbench is the repository's job-level benchmark. It composes
// the path a real job takes in one process — brokerd's HTTP face, the
// broker, a wire client, the wire server, the shard router, nproc
// durable queue shards each journaling into its own blob store, and the
// blob store the workers use — and runs closed-loop clients that submit
// jobs over HTTP and poll until each completes, as a user would.
//
// Usage, from the repository root:
//
//	bash jobbench/run.sh --workload echo-batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures one untraced pass and prints the
// end-to-end metrics. With --trace 1 it runs an untraced pass and then
// a traced pass on the same seed, each for half the time, and prints
// the per-layer metrics of the traced pass. The last line of standard
// output is one JSON object; earlier lines starting with '#' are the
// human-readable report. Every job's outputs and accounting are
// checked; a failed check makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: cap3-batch, echo-batch or job-stream")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "jobbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}

	// Inputs and reference outputs are built before anything is timed.
	inputs, err := w.inputs(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: inputs: %v\n", err)
		return 1
	}
	want := make([]map[string][]byte, len(inputs))
	for i, in := range inputs {
		if want[i], err = expectedOutputs(w.app, in); err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
			return 1
		}
	}
	files, size := inputBytes(inputs)
	fmt.Printf("# workload=%s seed=%d seconds=%v trace=%d job_inputs=%d input_files=%d input_bytes=%d nproc=%d gomaxprocs=%d go=%s\n",
		w.name, *seed, *seconds, *trace, len(inputs), files, size, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	measure := time.Duration(*seconds * float64(time.Second))
	var passes []*pass
	runPass := func(traced bool, d time.Duration) (*pass, error) {
		p, err := newPass(w, inputs, want, traced)
		if err != nil {
			return nil, err
		}
		p.run(d)
		p.s.close()
		passes = append(passes, p)
		return p, nil
	}

	var result []metric
	if *trace == 0 {
		p, err := runPass(false, measure)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
			return 1
		}
		gated, extra := endToEnd(p)
		printMetrics(append(gated, extra...))
		result = gated
	} else {
		ref, err := runPass(false, measure/2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
			return 1
		}
		p, err := runPass(true, measure/2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
			return 1
		}
		layers, coverage := perLayer(p, ref)
		printMetrics(layers)
		for _, line := range coverage {
			fmt.Println("# " + line)
		}
		for _, line := range compareCounts(ref, p) {
			fmt.Println("# " + line)
		}
		result = layers
	}

	var attempted, failed int
	var failures []string
	for _, p := range passes {
		attempted += p.tasks
		failed += p.failed
		failures = append(failures, p.failures...)
	}
	metrics := make(map[string]jsonMetric, len(result))
	for _, m := range result {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			failures = append(failures, fmt.Sprintf("metric %s is not a number", m.name))
			failed++
			m.value = 0
		}
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, f := range failures {
		fmt.Println("# FAILED " + f)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(failures) == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("# %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// compareCounts checks that tracing changed no behaviour: the counts
// the inputs fix — per task, staging sends, report batches, executor
// calls and catalog samples — are equal in the untraced and traced
// passes, and every billed call the traced client face saw is one the
// router billed. Totals such as queue requests per task also include
// idle long polls and tick-paced monitor drains, whose number follows
// elapsed time; they are printed for both passes, not compared.
func compareCounts(ref, p *pass) []string {
	var lines []string
	fixed := []struct {
		name string
		a, b int64
	}{
		{"queue send", ref.inside.queueOps["send"], p.inside.queueOps["send"]},
		{"queue send_batch", ref.inside.queueOps["send_batch"], p.inside.queueOps["send_batch"]},
		{"executor calls", ref.inside.execCalls, p.inside.execCalls},
		{"catalog samples", ref.inside.samples, p.inside.samples},
	}
	for _, f := range fixed {
		// a/ref.tasks == b/p.tasks, compared without rounding.
		if f.a*int64(p.tasks) != f.b*int64(ref.tasks) {
			p.fail("%s per task: untraced %d/%d, traced %d/%d", f.name, f.a, ref.tasks, f.b, p.tasks)
		}
	}
	billed := make(map[string]int64)
	for _, sp := range p.t.spans[layerWire] {
		if sp.queue != "" && sp.op != "depth" && sp.op != "ping" {
			billed[jobOf(sp.queue)]++
		}
	}
	for _, j := range p.jobs {
		if j.id == "" {
			continue
		}
		if router := p.s.jobRequests(j.id); billed[j.id] != router {
			p.fail("job %s: traced client face saw %d billed calls, router billed %d", j.id, billed[j.id], router)
		}
	}
	for _, q := range []*pass{ref, p} {
		tasks := float64(max(q.tasks, 1))
		var reqs int64
		for _, j := range q.jobs {
			reqs += j.cost.QueueRequests
		}
		kind := "untraced"
		if q.t != nil {
			kind = "traced"
		}
		lines = append(lines, fmt.Sprintf("counts %s queue_requests_per_task=%.6f journal.appends_per_task=%.6f",
			kind, float64(reqs)/tasks, float64(q.inside.jrnOps.count("append"))/tasks))
	}
	return lines
}
