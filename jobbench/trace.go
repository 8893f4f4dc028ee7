package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classiccloud"
	"repro/internal/queue"
)

// layer names a public boundary the traced pass records spans at.
type layer uint8

const (
	// layerWire is the wire.Client, as the broker and the workers call it.
	layerWire layer = iota
	// layerShard is the shard.Router, as the wire server calls it.
	layerShard
	// layerQueue is one durable queue.Service shard, as the router calls it.
	layerQueue
	// layerExec is the executor a worker runs on one task.
	layerExec
	numLayers
)

// span is one call across a layer boundary. Times are nanoseconds since
// the tracer's epoch. trace is the job's trace ID where the layer
// carries one (queue.TraceScoper views); below that, the job is found
// from the queue-name prefix.
type span struct {
	start, end int64
	op         string
	queue      string
	trace      string
	n          int // messages a receive returned; -1 for other ops
	err        bool
}

func (s span) dur() int64 { return s.end - s.start }

// idle reports whether the span is a receive that came back empty: its
// duration is long-poll waiting, not work, so latency figures skip it.
func (s span) idle() bool { return s.n == 0 }

// tracer keeps every span of the traced pass in memory; nothing is
// written out until the pass ends. The analysis keeps only spans that
// start inside a timed window.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans [numLayers][]span
	// sentAt and firstRecv key task-queue message bodies (unique per
	// task) to the client-observed enqueue and first-delivery times.
	sentAt    map[string]int64
	firstRecv map[string]int64
	// reports holds monitor-queue report bodies as workers sent them.
	reports [][]byte
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		sentAt:    make(map[string]int64),
		firstRecv: make(map[string]int64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(l layer, s span) {
	t.mu.Lock()
	t.spans[l] = append(t.spans[l], s)
	t.mu.Unlock()
}

// noteWire records the message-level facts only the client face sees:
// task enqueue and first-delivery times, and the monitor reports.
func (t *tracer) noteWire(s span, sent [][]byte, got []queue.Message) {
	if s.err {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case isTaskQueue(s.queue) && (s.op == "send" || s.op == "send_batch"):
		for _, b := range sent {
			t.sentAt[string(b)] = s.end
		}
	case isTaskQueue(s.queue):
		for _, m := range got {
			if _, seen := t.firstRecv[string(m.Body)]; !seen {
				t.firstRecv[string(m.Body)] = s.end
			}
		}
	case isMonitorQueue(s.queue) && s.op == "send_batch":
		t.reports = append(t.reports, sent...)
	}
}

// tracedAPI times every queue.API call made across one layer boundary.
// wrapQueue gives it exactly the optional interfaces of the value it
// wraps, so the router and the wire server take the same branches with
// tracing on as with it off.
type tracedAPI struct {
	inner queue.API
	t     *tracer
	l     layer
	trace string
}

func (w *tracedAPI) done(op, q string, start int64, n int, err error) span {
	s := span{start: start, end: w.t.now(), op: op, queue: q, trace: w.trace, n: n, err: err != nil}
	w.t.record(w.l, s)
	return s
}

// Optional-interface bits, one per queue capability the stack probes.
const (
	capTrace = 1 << iota
	capTransfer
	capPing
	capDepth
)

func capsOf(api queue.API) int {
	c := 0
	if _, ok := api.(queue.TraceScoper); ok {
		c |= capTrace
	}
	if _, ok := api.(queue.Transferrer); ok {
		c |= capTransfer
	}
	if _, ok := api.(queue.Pinger); ok {
		c |= capPing
	}
	if _, ok := api.(queue.DepthReporter); ok {
		c |= capDepth
	}
	return c
}

type scoper struct{ w *tracedAPI }
type transferrer struct{ w *tracedAPI }
type pinger struct{ w *tracedAPI }
type depther struct{ w *tracedAPI }

// wrapQueue returns inner wrapped for layer l, implementing the same
// subset of TraceScoper, Transferrer, Pinger and DepthReporter.
func wrapQueue(inner queue.API, t *tracer, l layer, trace string) queue.API {
	return withCaps(&tracedAPI{inner: inner, t: t, l: l, trace: trace}, capsOf(inner))
}

// withCaps returns w extended by exactly the optional interfaces in
// caps.
func withCaps(w *tracedAPI, caps int) queue.API {
	s, x, p, d := scoper{w}, transferrer{w}, pinger{w}, depther{w}
	switch caps {
	case capTrace:
		return struct {
			*tracedAPI
			scoper
		}{w, s}
	case capTransfer:
		return struct {
			*tracedAPI
			transferrer
		}{w, x}
	case capTrace | capTransfer:
		return struct {
			*tracedAPI
			scoper
			transferrer
		}{w, s, x}
	case capPing:
		return struct {
			*tracedAPI
			pinger
		}{w, p}
	case capTrace | capPing:
		return struct {
			*tracedAPI
			scoper
			pinger
		}{w, s, p}
	case capTransfer | capPing:
		return struct {
			*tracedAPI
			transferrer
			pinger
		}{w, x, p}
	case capTrace | capTransfer | capPing:
		return struct {
			*tracedAPI
			scoper
			transferrer
			pinger
		}{w, s, x, p}
	case capDepth:
		return struct {
			*tracedAPI
			depther
		}{w, d}
	case capTrace | capDepth:
		return struct {
			*tracedAPI
			scoper
			depther
		}{w, s, d}
	case capTransfer | capDepth:
		return struct {
			*tracedAPI
			transferrer
			depther
		}{w, x, d}
	case capTrace | capTransfer | capDepth:
		return struct {
			*tracedAPI
			scoper
			transferrer
			depther
		}{w, s, x, d}
	case capPing | capDepth:
		return struct {
			*tracedAPI
			pinger
			depther
		}{w, p, d}
	case capTrace | capPing | capDepth:
		return struct {
			*tracedAPI
			scoper
			pinger
			depther
		}{w, s, p, d}
	case capTransfer | capPing | capDepth:
		return struct {
			*tracedAPI
			transferrer
			pinger
			depther
		}{w, x, p, d}
	case capTrace | capTransfer | capPing | capDepth:
		return struct {
			*tracedAPI
			scoper
			transferrer
			pinger
			depther
		}{w, s, x, p, d}
	}
	return w
}

func (s scoper) WithTrace(traceID string) queue.API {
	w := s.w
	return wrapQueue(w.inner.(queue.TraceScoper).WithTrace(traceID), w.t, w.l, traceID)
}

func (x transferrer) TransferIn(q string, body []byte, receives int) (string, error) {
	w := x.w
	st := w.t.now()
	id, err := w.inner.(queue.Transferrer).TransferIn(q, body, receives)
	w.done("transfer", q, st, -1, err)
	return id, err
}

func (x transferrer) TransferInBatch(q string, items []queue.TransferItem) ([]string, error) {
	w := x.w
	st := w.t.now()
	ids, err := w.inner.(queue.Transferrer).TransferInBatch(q, items)
	w.done("transfer_batch", q, st, -1, err)
	return ids, err
}

func (p pinger) Ping() error {
	w := p.w
	st := w.t.now()
	err := w.inner.(queue.Pinger).Ping()
	w.done("ping", "", st, -1, err)
	return err
}

func (d depther) QueueDepth(q string) (int, int, error) {
	w := d.w
	st := w.t.now()
	v, f, err := w.inner.(queue.DepthReporter).QueueDepth(q)
	w.done("depth", q, st, -1, err)
	return v, f, err
}

func (w *tracedAPI) CreateQueue(name string) error {
	st := w.t.now()
	err := w.inner.CreateQueue(name)
	w.done("create_queue", name, st, -1, err)
	return err
}

func (w *tracedAPI) DeleteQueue(name string) error {
	st := w.t.now()
	err := w.inner.DeleteQueue(name)
	w.done("delete_queue", name, st, -1, err)
	return err
}

func (w *tracedAPI) ListQueues() []string {
	st := w.t.now()
	names := w.inner.ListQueues()
	w.done("list_queues", "", st, -1, nil)
	return names
}

func (w *tracedAPI) SendMessage(q string, body []byte) (string, error) {
	st := w.t.now()
	id, err := w.inner.SendMessage(q, body)
	s := w.done("send", q, st, -1, err)
	if w.l == layerWire {
		w.t.noteWire(s, [][]byte{body}, nil)
	}
	return id, err
}

func (w *tracedAPI) SendMessageBatch(q string, bodies [][]byte) ([]string, error) {
	st := w.t.now()
	ids, err := w.inner.SendMessageBatch(q, bodies)
	s := w.done("send_batch", q, st, -1, err)
	if w.l == layerWire {
		w.t.noteWire(s, bodies, nil)
	}
	return ids, err
}

func (w *tracedAPI) received(op, q string, st int64, msgs []queue.Message, err error) {
	s := w.done(op, q, st, len(msgs), err)
	if w.l == layerWire {
		w.t.noteWire(s, nil, msgs)
	}
}

func (w *tracedAPI) ReceiveMessage(q string, visibility time.Duration) (queue.Message, bool, error) {
	st := w.t.now()
	m, ok, err := w.inner.ReceiveMessage(q, visibility)
	w.received("receive", q, st, oneMessage(m, ok), err)
	return m, ok, err
}

func (w *tracedAPI) ReceiveMessageWait(q string, visibility, wait time.Duration) (queue.Message, bool, error) {
	st := w.t.now()
	m, ok, err := w.inner.ReceiveMessageWait(q, visibility, wait)
	w.received("receive", q, st, oneMessage(m, ok), err)
	return m, ok, err
}

func oneMessage(m queue.Message, ok bool) []queue.Message {
	if !ok {
		return nil
	}
	return []queue.Message{m}
}

func (w *tracedAPI) ReceiveMessageBatch(q string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	st := w.t.now()
	msgs, err := w.inner.ReceiveMessageBatch(q, visibility, max, wait)
	w.received("receive_batch", q, st, msgs, err)
	return msgs, err
}

func (w *tracedAPI) DeleteMessage(q, receipt string) error {
	st := w.t.now()
	err := w.inner.DeleteMessage(q, receipt)
	w.done("delete", q, st, -1, err)
	return err
}

func (w *tracedAPI) DeleteMessageBatch(q string, receipts []string) ([]error, error) {
	st := w.t.now()
	res, err := w.inner.DeleteMessageBatch(q, receipts)
	w.done("delete_batch", q, st, -1, err)
	return res, err
}

func (w *tracedAPI) ChangeVisibility(q, receipt string, d time.Duration) error {
	st := w.t.now()
	err := w.inner.ChangeVisibility(q, receipt, d)
	w.done("change_visibility", q, st, -1, err)
	return err
}

func (w *tracedAPI) ApproximateCount(q string) (int, int, error) {
	st := w.t.now()
	v, f, err := w.inner.ApproximateCount(q)
	w.done("count", q, st, -1, err)
	return v, f, err
}

func (w *tracedAPI) Purge(q string) error {
	st := w.t.now()
	err := w.inner.Purge(q)
	w.done("purge", q, st, -1, err)
	return err
}

// APIRequests and APIRequestsFor are billing reads, not billed calls;
// they pass through unrecorded.
func (w *tracedAPI) APIRequests() int64 { return w.inner.APIRequests() }

func (w *tracedAPI) APIRequestsFor(q string) int64 { return w.inner.APIRequestsFor(q) }

// timedExec wraps a job's executor. Its call count and busy time feed
// the paper's Eq 1 on every pass; spans are kept only when traced.
type timedExec struct {
	inner classiccloud.Executor
	c     *execCounters
	t     *tracer // nil on untraced passes
}

type execCounters struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (e timedExec) Name() string { return e.inner.Name() }

func (e timedExec) Execute(task classiccloud.Task, input []byte) ([]byte, error) {
	start := time.Now()
	out, err := e.inner.Execute(task, input)
	d := time.Since(start)
	e.c.calls.Add(1)
	e.c.nanos.Add(int64(d))
	if e.t != nil {
		st := int64(start.Sub(e.t.epoch))
		e.t.record(layerExec, span{start: st, end: st + int64(d), op: "execute", n: -1, err: err != nil})
	}
	return out, err
}
