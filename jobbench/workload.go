package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cap3"
	"repro/internal/workload"
)

// echoApp names the identity executor registered for echo-batch and
// job-stream: its output is its input, so execution costs about nothing.
const echoApp = "echo"

// Why each workload exists, and which end-to-end metric each per-layer
// metric of the traced pass should move, on which workload. Later
// changes cite these names.
//
// cap3-batch is the paper's Cap3 experiment: one CAP3 job over seeded
// workload.Cap3FileSet files, sized so the cap3 kernel dominates worker
// busy time. The queue stack does little here, so a queue, wire or
// journal change must show no change on it. cap3.Run is not yet
// deterministic: overlaps are gathered in map order and sorted by score
// with ties unbroken, so a few inputs assemble to different bytes from
// one call to the next, and this workload's byte-equality check fails
// until that is fixed.
//
// echo-batch is one job of 10^4 1-KiB inputs through the identity
// executor. Execution is about zero, so the makespan is the framework's
// per-task overhead: staging on submit (one blob Put plus one
// SendMessage round trip per file), batched receives and deletes,
// monitor reports and settlement, durable journal appends, and wire
// framing and routing. Queue, wire, shard, journal and blob gains show
// here.
//
// job-stream is nproc closed-loop clients, each submitting a small echo
// job (16 x 1 KiB) and polling until it completes before submitting the
// next. It uses the queue and journal layers for control instead of
// data: per job 3 CreateQueue calls, 2 bucket creates, a job journal
// create, appends and snapshot, a fleet launch and stop, and completion
// detection on the broker's tick. A change that speeds bulk messaging
// but slows setup or teardown shows here. Latency is about one tick
// plus a few milliseconds, so the tick is fixed short (tickInterval)
// and its share is reported as broker.tick_frac.
//
// Layer metric -> end-to-end metric it should move (workload):
//
//	broker.completion_lag_ms        -> job_latency_p50_ms (job-stream); about 0 on the batch workloads
//	broker.submit_self_ms           -> submit_s (echo-batch)
//	broker.settle_calls_per_task    -> queue_requests_per_task
//	broker.tick_frac                -> job_latency_p50_ms (job-stream)
//	classiccloud.service_ms_p50/p99 -> makespan_s (cap3-batch); the slowest task sets the tail
//	classiccloud.io_ms_per_task     -> overhead_ms_per_task (echo-batch)
//	classiccloud.queue_wait_ms_p50  -> makespan_s
//	classiccloud.empty_receive_frac -> queue_requests_per_task, cost_usd_per_1k_tasks
//	exec.busy_s, exec.execute_ms_p50, exec.calls_per_task (1.0 without faults)
//	                                -> parallel_efficiency, tasks_per_s (cap3-batch); none on echo-batch
//	wire.ops_per_task, wire.send_us_p50, wire.receive_batch_us_p50, wire.delete_batch_us_p50,
//	wire.transport_us_per_op, wire.op_error_frac
//	                                -> submit_s, overhead_ms_per_task, cpu_ms_per_task (echo-batch)
//	shard.self_us_per_op, shard.op_us_p99
//	                                -> overhead_ms_per_task, cpu_ms_per_task (echo-batch)
//	queue.ops_per_task, queue.service_us_per_op, queue.self_us_per_op
//	                                -> overhead_ms_per_task, cpu_ms_per_task, alloc_bytes_per_task (echo-batch)
//	journal.appends_per_task, journal.bytes_per_task, journal.append_us_p50, journal.snapshots_per_1k_tasks
//	                                -> overhead_ms_per_task (echo-batch), jobs_per_s (job-stream)
//	blob.requests_per_task, blob.bytes_per_task, blob.put_us_p50, blob.get_us_p50, blob.appends_per_job
//	                                -> submit_s, overhead_ms_per_task (echo-batch), jobs_per_s (job-stream)
//	bench.trace_overhead_frac       -> none: traced / untraced makespan - 1 on the same seed
//	bench.unattributed_frac         -> none: share of makespan x workers no span covers
type workloadSpec struct {
	name string
	app  string
	// clients is the number of closed-loop HTTP clients; 0 means nproc.
	clients int
	// instances is the pinned fleet of one job; 0 means nproc.
	instances int
	// inputs builds the distinct job inputs a run cycles through.
	inputs func(seed int64) ([]map[string][]byte, error)
}

var workloads = []workloadSpec{
	{name: "cap3-batch", app: "cap3", clients: 1, inputs: cap3Inputs},
	{name: "echo-batch", app: echoApp, clients: 1, inputs: func(seed int64) ([]map[string][]byte, error) {
		return echoInputs(seed, 1, 10000, 1024), nil
	}},
	{name: "job-stream", app: echoApp, instances: 1, inputs: func(seed int64) ([]map[string][]byte, error) {
		return echoInputs(seed, 64, 16, 1024), nil
	}},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// CAP3 job shape: enough reads per file that assembly takes tens of
// milliseconds, and enough files that every worker gets several
// receive batches.
const (
	cap3Files        = 32
	cap3ReadsPerFile = 80
	cap3GenomeLen    = 2000
)

func cap3Inputs(seed int64) ([]map[string][]byte, error) {
	files, err := workload.Cap3FileSet(seed, cap3Files, cap3ReadsPerFile, cap3GenomeLen, 0)
	if err != nil {
		return nil, err
	}
	return []map[string][]byte{files}, nil
}

// echoInputs builds jobs distinct jobs of files random printable files
// of size bytes each.
func echoInputs(seed int64, jobs, files, size int) []map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "ACGT"
	out := make([]map[string][]byte, jobs)
	for j := range out {
		m := make(map[string][]byte, files)
		for i := range files {
			b := make([]byte, size)
			for k := range b {
				b[k] = alphabet[rng.Intn(len(alphabet))]
			}
			m[fmt.Sprintf("in_%05d.txt", i)] = b
		}
		out[j] = m
	}
	return out
}

// expectedOutputs computes what a correct run returns for each input
// file: the input itself for echo, cap3.Run's bytes for CAP3.
func expectedOutputs(app string, files map[string][]byte) (map[string][]byte, error) {
	if app == echoApp {
		return files, nil
	}
	want := make(map[string][]byte, len(files))
	for name, in := range files {
		out, err := cap3.Run(in, cap3.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference cap3 on %s: %w", name, err)
		}
		want[name] = out
	}
	return want, nil
}

// inputBytes sums the sizes of every file in every job input.
func inputBytes(inputs []map[string][]byte) (files, bytes int) {
	for _, m := range inputs {
		for _, b := range m {
			files++
			bytes += len(b)
		}
	}
	return files, bytes
}
