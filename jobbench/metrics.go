package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/classiccloud"
	"repro/internal/metrics"
)

// metric is one named figure with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

func isTaskQueue(q string) bool    { return strings.HasSuffix(q, "/tasks") }
func isMonitorQueue(q string) bool { return strings.HasSuffix(q, "/monitor") }

// jobOf returns the job a queue belongs to: its placement-group prefix.
func jobOf(queue string) string {
	job, _, _ := strings.Cut(queue, "/")
	return job
}

// summary holds what the end-to-end metrics are computed from: the jobs
// that completed and the time their windows cover.
type summary struct {
	jobs      []*jobRun
	tasks     int     // tasks done
	busy      float64 // seconds covered by at least one job window
	workers   int     // workers busy at once: clients x fleet per job
	makespans []float64
	submits   []float64
}

func summarize(p *pass) summary {
	s := summary{workers: p.cfg.clients * p.cfg.instances}
	var ivs []interval
	for _, j := range p.jobs {
		if !j.ok() {
			continue
		}
		s.jobs = append(s.jobs, j)
		s.tasks += j.status.Done
		s.makespans = append(s.makespans, j.makespan().Seconds())
		s.submits = append(s.submits, j.submit().Seconds())
		ivs = append(ivs, interval{j.post, j.seen})
	}
	s.busy = float64(unionLength(ivs)) / 1e9
	return s
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced pass. The second list holds figures that are printed but not
// gated: overhead_ms_per_task (with execution about zero it is
// workers / tasks_per_s, which is gated, and swings more),
// peak_rss_mb (the broker keeps every finished job, so on job-stream
// the peak grows with the jobs a run completes and a faster stack would
// read as a memory regression), job_latency_p99_ms (a batch run
// completes about ten jobs, so its p99 is their maximum and swings by
// about a fifth from run to run), parallel_efficiency (the paper's Eq 1;
// on the identity executor it is about 1e-4 and swings with timer
// noise, so it is only meaningful on cap3-batch), error_rate (0 on a
// correct run, so it has no ratio bound) and sample counts.
func endToEnd(p *pass) (gated, extra []metric) {
	s := summarize(p)
	tasks := float64(max(s.tasks, 1))
	var queueReqs int64
	var usd float64
	for _, j := range s.jobs {
		queueReqs += j.cost.QueueRequests
		usd += j.cost.AmortizedCost + j.cost.QueueCost
	}
	exec := time.Duration(p.inside.execNS)
	busy := time.Duration(s.busy * 1e9)
	gated = []metric{
		{"setup_s", "s", median(p.setup)},
		{"submit_s", "s", median(s.submits)},
		{"makespan_s", "s", median(s.makespans)},
		{"tasks_per_s", "1/s", float64(s.tasks) / s.busy},
		{"job_latency_p50_ms", "ms", percentile(s.makespans, 0.50) * 1e3},
		{"jobs_per_s", "1/s", float64(len(s.jobs)) / s.busy},
		{"queue_requests_per_task", "count", float64(queueReqs) / tasks},
		{"cost_usd_per_1k_tasks", "usd", usd / tasks * 1000},
		// Process CPU per task, load generator included. The stack is
		// latency-bound, so wall-clock figures swing with CPU stolen by
		// other tenants of the host while this one barely moves.
		{"cpu_ms_per_task", "ms", float64(p.inside.cpuNS) / 1e6 / tasks},
		{"alloc_bytes_per_task", "B", float64(p.inside.alloc) / tasks},
	}
	extra = []metric{
		{"overhead_ms_per_task", "ms", (s.busy*float64(s.workers) - exec.Seconds()) / tasks * 1e3},
		{"peak_rss_mb", "MiB", peakRSSBytes() / (1 << 20)},
		{"job_latency_p99_ms", "ms", percentile(s.makespans, 0.99) * 1e3},
		{"parallel_efficiency", "ratio", metrics.ParallelEfficiency(exec, busy, s.workers)},
		{"error_rate", "ratio", float64(p.failed) / float64(max(p.tasks, 1))},
		{"jobs", "count", float64(len(p.jobs))},
		{"latency_samples", "count", float64(len(s.makespans))},
	}
	return gated, extra
}

// inWindows keeps the spans that start inside one of the pass's timed
// windows.
func inWindows(spans []span, windows []interval) []span {
	var out []span
	for _, sp := range spans {
		i := sort.Search(len(windows), func(i int) bool { return windows[i].end >= sp.start })
		if i < len(windows) && windows[i].start <= sp.start {
			out = append(out, sp)
		}
	}
	return out
}

// covered returns, per parent span, how much of it the child spans
// cover. A child belongs to the innermost parent on the same queue
// (and, when byTrace, the same trace) whose interval contains it.
func covered(parents, children []span, byTrace bool) []int64 {
	key := func(s span) string {
		if byTrace {
			return s.queue + "\x00" + s.trace
		}
		return s.queue
	}
	order := make([]int, len(parents))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return parents[order[a]].start < parents[order[b]].start })
	byKey := make(map[string][]int)
	for _, i := range order {
		k := key(parents[i])
		byKey[k] = append(byKey[k], i)
	}
	kids := make([][]interval, len(parents))
	for _, c := range children {
		list := byKey[key(c)]
		j := sort.Search(len(list), func(x int) bool { return parents[list[x]].start > c.start }) - 1
		// Concurrent calls on one queue overlap; look back a bounded
		// distance for the latest-starting parent that contains c.
		for steps := 0; j >= 0 && steps < 64; j, steps = j-1, steps+1 {
			if parents[list[j]].end >= c.end {
				kids[list[j]] = append(kids[list[j]], interval{c.start, c.end})
				break
			}
		}
	}
	out := make([]int64, len(parents))
	for i, ks := range kids {
		out[i] = unionLength(ks)
	}
	return out
}

// selfSum is the total of span durations minus what their children
// cover.
func selfSum(parents []span, cov []int64) int64 {
	var t int64
	for i, sp := range parents {
		t += sp.dur() - cov[i]
	}
	return t
}

// durationsUS returns the durations of the spans that pass keep, in µs.
func durationsUS(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, sp := range spans {
		if keep(sp) {
			out = append(out, float64(sp.dur())/1e3)
		}
	}
	return out
}

func count(spans []span, keep func(span) bool) int {
	n := 0
	for _, sp := range spans {
		if keep(sp) {
			n++
		}
	}
	return n
}

func busyOp(sp span) bool { return !sp.idle() }

// workerOp reports whether a client-face call is one a worker makes:
// receives, lease renewals and acknowledgements on the task queue, and
// reports to the monitor and dead-letter queues.
func workerOp(sp span) bool {
	switch {
	case isTaskQueue(sp.queue):
		return sp.op == "receive_batch" || sp.op == "delete_batch" || sp.op == "change_visibility" || sp.op == "delete"
	case isMonitorQueue(sp.queue):
		return sp.op == "send_batch" || sp.op == "send"
	}
	return strings.HasSuffix(sp.queue, "/dead") && sp.op == "send"
}

// perLayer computes the traced pass's per-layer metrics, and the
// coverage report: each layer's self time next to the share of
// makespan x workers that no span covers. ref is the untraced pass on
// the same seed.
func perLayer(p, ref *pass) ([]metric, []string) {
	t := p.t
	s := summarize(p)
	tasks := float64(max(p.tasks, 1))
	jobs := float64(max(len(p.jobs), 1))
	wireS := inWindows(t.spans[layerWire], p.windows)
	shardS := inWindows(t.spans[layerShard], p.windows)
	queueS := inWindows(t.spans[layerQueue], p.windows)
	execS := inWindows(t.spans[layerExec], p.windows)

	wireCov := covered(wireS, shardS, true)
	shardCov := covered(shardS, queueS, false)
	var queueBusyNS int64
	for _, sp := range queueS {
		if busyOp(sp) {
			queueBusyNS += sp.dur()
		}
	}
	queueBusyOps := float64(max(count(queueS, busyOp), 1))
	in := p.inside
	appendNS := in.jrnOps["append"].sum

	var service []float64 // ms
	var serviceNS int64
	for _, body := range t.reports {
		r, err := classiccloud.ParseMonitorReport(body)
		if err != nil || r.Status != classiccloud.StatusDone {
			continue
		}
		service = append(service, float64(r.ServiceTime)/1e6)
		serviceNS += int64(r.ServiceTime)
	}
	var waits []float64
	for body, at := range t.firstRecv {
		if sent, ok := t.sentAt[body]; ok {
			waits = append(waits, float64(at-sent)/1e6)
		}
	}

	// Broker: completion lag after the job's last monitor delete, and
	// submit time not spent in queue calls or blob operations.
	lastDelete := make(map[string]int64)
	settle := 0
	for _, sp := range wireS {
		if !isMonitorQueue(sp.queue) || (sp.op != "delete_batch" && sp.op != "receive_batch") {
			continue
		}
		settle++
		if sp.op == "delete_batch" && sp.end > lastDelete[jobOf(sp.queue)] {
			lastDelete[jobOf(sp.queue)] = sp.end
		}
	}
	byTrace := make(map[string]*jobRun, len(s.jobs))
	for _, j := range s.jobs {
		byTrace[j.trace] = j
	}
	submitQueueNS := make(map[*jobRun]int64)
	for _, sp := range wireS {
		j := byTrace[sp.trace]
		if j != nil && sp.start >= j.post && sp.end <= j.accepted && (sp.op == "create_queue" || sp.op == "send") {
			submitQueueNS[j] += sp.dur()
		}
	}
	var lags, submitSelf []float64
	var lagNS, submitSelfNS, submitLaneNS int64
	for _, j := range s.jobs {
		if last, ok := lastDelete[j.id]; ok {
			lags = append(lags, float64(j.seen-last)/1e6)
			lagNS += j.seen - last
		}
		self := max(j.accepted-j.post-submitQueueNS[j]-j.blobSubmitNS, 0)
		submitSelf = append(submitSelf, float64(self)/1e6)
		submitSelfNS += self
		submitLaneNS += (j.accepted - j.post) * int64(p.cfg.instances)
	}

	// Coverage: makespan x workers, of which the submit round trip
	// (before the fleet works), the workers' own queue calls and the
	// task pipelines they report are covered by spans. Worker calls are
	// clipped to their job's window after submit.
	var capacityNS, workerNS int64
	after := make(map[string]interval, len(s.jobs))
	for _, j := range s.jobs {
		capacityNS += (j.seen - j.post) * int64(p.cfg.instances)
		after[j.id] = interval{j.accepted, j.seen}
	}
	for _, sp := range wireS {
		if iv, ok := after[jobOf(sp.queue)]; ok && workerOp(sp) {
			workerNS += max(min(sp.end, iv.end)-max(sp.start, iv.start), 0)
		}
	}
	unattributed := 1 - float64(submitLaneNS+workerNS+serviceNS)/float64(max(capacityNS, 1))
	unattributed = min(max(unattributed, 0), 1)

	emptyTask := count(wireS, func(sp span) bool {
		return isTaskQueue(sp.queue) && sp.op == "receive_batch" && sp.idle()
	})
	taskRecv := count(wireS, func(sp span) bool { return isTaskQueue(sp.queue) && sp.op == "receive_batch" })
	wireOps := float64(max(len(wireS), 1))
	shardOps := float64(max(len(shardS), 1))
	refMakespan := median(summarize(ref).makespans)

	out := []metric{
		{"broker.completion_lag_ms", "ms", median(lags)},
		{"broker.submit_self_ms", "ms", median(submitSelf)},
		{"broker.settle_calls_per_task", "count", float64(settle) / tasks},
		{"broker.tick_frac", "ratio", tickInterval.Seconds() / median(s.makespans)},
		{"classiccloud.service_ms_p50", "ms", percentile(service, 0.50)},
		{"classiccloud.service_ms_p99", "ms", percentile(service, 0.99)},
		{"classiccloud.io_ms_per_task", "ms", float64(serviceNS-in.execNS) / 1e6 / tasks},
		{"classiccloud.queue_wait_ms_p50", "ms", percentile(waits, 0.50)},
		{"classiccloud.empty_receive_frac", "ratio", float64(emptyTask) / float64(max(taskRecv, 1))},
		{"exec.busy_s", "s", float64(in.execNS) / 1e9},
		{"exec.execute_ms_p50", "ms", percentile(durationsUS(execS, busyOp), 0.50) / 1e3},
		{"exec.calls_per_task", "count", float64(in.execCalls) / tasks},
		{"wire.ops_per_task", "count", float64(len(wireS)) / tasks},
		{"wire.send_us_p50", "us", percentile(durationsUS(wireS, func(sp span) bool { return sp.op == "send" }), 0.50)},
		{"wire.receive_batch_us_p50", "us", percentile(durationsUS(wireS, func(sp span) bool {
			return sp.op == "receive_batch" && !sp.idle()
		}), 0.50)},
		{"wire.delete_batch_us_p50", "us", percentile(durationsUS(wireS, func(sp span) bool { return sp.op == "delete_batch" }), 0.50)},
		{"wire.transport_us_per_op", "us", float64(selfSum(wireS, wireCov)) / 1e3 / wireOps},
		{"wire.op_error_frac", "ratio", float64(count(wireS, func(sp span) bool { return sp.err })) / wireOps},
		{"shard.self_us_per_op", "us", float64(selfSum(shardS, shardCov)) / 1e3 / shardOps},
		{"shard.op_us_p99", "us", percentile(durationsUS(shardS, busyOp), 0.99)},
		{"queue.ops_per_task", "count", float64(len(queueS)) / tasks},
		{"queue.service_us_per_op", "us", float64(queueBusyNS) / 1e3 / queueBusyOps},
		{"queue.self_us_per_op", "us", float64(queueBusyNS-appendNS) / 1e3 / queueBusyOps},
		{"journal.appends_per_task", "count", float64(in.jrnOps.count("append")) / tasks},
		{"journal.bytes_per_task", "B", float64(in.jrnUse.BytesIn) / tasks},
		{"journal.append_us_p50", "us", float64(in.jrnOps.hist("append").Quantile(0.5)) / 1e3},
		{"journal.snapshots_per_1k_tasks", "count", float64(in.jrnOps.count("put")) / tasks * 1000},
		{"blob.requests_per_task", "count", float64(in.blobUse.Requests()) / tasks},
		{"blob.bytes_per_task", "B", float64(in.blobUse.BytesIn+in.blobUse.BytesOut) / tasks},
		{"blob.put_us_p50", "us", float64(in.blobOps.hist("put").Quantile(0.5)) / 1e3},
		{"blob.get_us_p50", "us", float64(in.blobOps.hist("get").Quantile(0.5)) / 1e3},
		{"blob.appends_per_job", "count", float64(in.blobOps.count("append")) / jobs},
		{"bench.trace_overhead_frac", "ratio", median(s.makespans)/refMakespan - 1},
		{"bench.unattributed_frac", "ratio", unattributed},
	}

	capacity := float64(max(capacityNS, 1))
	layerSelf := []struct {
		name string
		ns   int64
	}{
		{"broker", submitSelfNS + lagNS},
		{"classiccloud", serviceNS - in.execNS},
		{"exec", in.execNS},
		{"wire", selfSum(wireS, wireCov)},
		{"shard", selfSum(shardS, shardCov)},
		{"queue", queueBusyNS - appendNS},
		{"journal", appendNS},
		{"blob", in.blobOps.total()},
	}
	var report []string
	for _, l := range layerSelf {
		report = append(report, fmt.Sprintf("coverage layer=%-12s self_s=%.4f share=%.4f",
			l.name, float64(l.ns)/1e9, float64(l.ns)/capacity))
	}
	report = append(report, fmt.Sprintf("coverage makespan_x_workers_s=%.4f bench.unattributed_frac=%.4f",
		capacity/1e9, unattributed))
	return out, report
}
