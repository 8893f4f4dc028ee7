// Package queue simulates the cloud queue services of the paper — Amazon
// SQS and Azure Queue — with their distinguishing semantics: at-least-once
// delivery, no ordering guarantee, a configurable per-message visibility
// timeout (read messages are hidden until the timeout expires and then
// reappear unless deleted), occasional duplicate delivery, and
// request-count accounting for the pricing model.
//
// The Classic Cloud framework builds its entire fault-tolerance story on
// these semantics, exactly as Section 2.1.3 describes: a worker deletes a
// task message only after completing it, so an un-deleted task reappears
// and is re-executed by another worker.
//
// # Concurrency model
//
// The service mutex guards only the queue namespace (create / delete /
// list). Every queue carries its own lock, so tenants sharing one service
// contend only with traffic on their own queue — the multi-tenant broker
// deployment stops serializing unrelated jobs through one mutex.
//
// # Indexed message store
//
// Each queue keeps three structures, all bounded by its live (undeleted)
// messages: a delivery-ordered list of visible messages, a min-heap of
// in-flight messages keyed by the time they become visible again, and a
// receipt-handle index. DeleteMessage and ChangeVisibility are O(log n)
// by receipt; ReceiveMessage touches at most ShuffleWindow list nodes;
// ApproximateCount reads the structure sizes. Deleted messages are
// removed from all three structures immediately (compaction), so memory
// and per-operation cost track live messages, not messages ever sent.
//
// # Long polling and batches
//
// ReceiveMessageWait blocks until a message is visible or the wait time
// elapses, waking on sends, visibility releases, in-flight expiries, and
// FakeClock advances — replacing busy poll loops. The batch calls
// (SendMessageBatch, ReceiveMessageBatch, DeleteMessageBatch) move up to
// MaxBatch messages and are billed as one API request, the SQS batch
// pricing the paper's cost tables assume one-request-per-message for.
package queue

import (
	"container/heap"
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Clock abstracts time so tests can drive visibility timeouts without
// sleeping.
type Clock interface {
	Now() time.Time
}

// AdvanceNotifier is optionally implemented by clocks whose time jumps
// discretely (FakeClock). Long-polling receivers select on AdvanceCh so a
// test advancing the clock wakes them immediately instead of waiting out
// a real-time timer.
type AdvanceNotifier interface {
	// AdvanceCh returns a channel closed at the next clock advance.
	AdvanceCh() <-chan struct{}
}

// RealClock reads the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced clock for tests and simulations.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
	adv chan struct{}
}

// NewFakeClock starts a fake clock at t.
func NewFakeClock(t time.Time) *FakeClock {
	return &FakeClock{now: t, adv: make(chan struct{})}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and wakes long-poll waiters.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	close(c.adv)
	c.adv = make(chan struct{})
	c.mu.Unlock()
}

// AdvanceCh implements AdvanceNotifier.
func (c *FakeClock) AdvanceCh() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adv
}

// Message is one queued item as seen by a receiver.
//
// Body aliases the service's stored copy (made once at SendMessage);
// receivers must treat it as read-only. Mutating it corrupts future
// redeliveries of the same message. The stored copy lives in a pooled
// buffer that is recycled when the message is deleted, so Body is
// valid only while the message is live: a consumer that lost its lease
// (the visibility timeout passed and another consumer may delete the
// message) must not touch Body afterwards. Remote consumers are
// unaffected — the HTTP and wire transports both copy bodies at the
// protocol boundary.
type Message struct {
	ID            string
	Body          []byte
	ReceiptHandle string
	Receives      int // delivery count including this one
}

// MaxBatch is the per-call message cap of the batch APIs, matching SQS.
const MaxBatch = 10

// Config tunes service behaviour.
type Config struct {
	// DefaultVisibility applies when ReceiveMessage passes 0.
	DefaultVisibility time.Duration
	// DuplicateProb injects duplicate deliveries (eventual consistency /
	// at-least-once artifacts). 0 disables.
	DuplicateProb float64
	// ShuffleWindow controls how unordered delivery is: a receive picks
	// uniformly among the first ShuffleWindow visible messages. 1 gives
	// FIFO; larger values emulate SQS's weak ordering. Default 4.
	ShuffleWindow int
	// Seed for the delivery-order randomness. Each queue derives its own
	// deterministic stream from (Seed, queue name).
	Seed int64
	// Clock defaults to RealClock.
	Clock Clock
	// ServiceTime simulates the finite request-processing capacity of
	// one queue-service process: every billed call occupies one of
	// ServiceConcurrency request slots for this long before executing.
	// 0 (the default) disables the simulation entirely. This is the
	// queue-side analogue of blob.Config.RequestLatency and what makes a
	// sharded deployment measurable — N services have N times the
	// request capacity of one. The charge is real wall-clock time
	// (time.Sleep), deliberately outside the Clock abstraction: it
	// throttles actual concurrent callers in throughput benchmarks.
	// Do not combine it with FakeClock — fake time never advances
	// through it, it only makes every call slow.
	ServiceTime time.Duration
	// ServiceConcurrency is the number of simulated request processors
	// when ServiceTime > 0 (default 8).
	ServiceConcurrency int
	// Metrics, when set, makes the service self-measuring: per-op
	// latency histograms (queue_op_ns), per-queue request rates
	// (queue_requests), and backlog-depth gauges (queue_backlog_*) are
	// registered there. Nil (the default) keeps the hot path free of
	// clock reads — instrumentation costs nothing unless wired.
	Metrics *telemetry.Registry
	// MetricsName labels this service's series (svc="name") so several
	// services sharing one registry — e.g. the local shards of a router —
	// stay distinguishable. Empty omits the label.
	MetricsName string
	// Durability, when set, journals every accepted mutation to a
	// blob-store journal before committing it, enabling Recover (fold
	// the journal back into exact state after a crash) and Follower
	// (replicate it onto a standby). Recover must be called before the
	// service takes traffic. Nil — the default — keeps the service
	// purely in-memory with no hot-path cost beyond a nil check. See
	// durable.go.
	Durability *Durability
}

func (c Config) withDefaults() Config {
	if c.DefaultVisibility == 0 {
		c.DefaultVisibility = 30 * time.Second
	}
	if c.ShuffleWindow == 0 {
		c.ShuffleWindow = 4
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	if c.ServiceConcurrency == 0 {
		c.ServiceConcurrency = 8
	}
	return c
}

// RequestCounter implements the billing-attribution model shared by
// every queue.API implementation that bills its own traffic (Service,
// shard.Router): a total request count plus per-queue attribution
// (name → *atomic.Int64) that survives queue deletion, so a
// multi-tenant deployment can bill each tenant its own traffic.
type RequestCounter struct {
	total   atomic.Int64
	byQueue sync.Map
}

// Count bills one call addressed to queueName. A batch call counts once
// regardless of how many messages it moves.
func (c *RequestCounter) Count(queueName string) {
	c.total.Add(1)
	v, ok := c.byQueue.Load(queueName)
	if !ok {
		v, _ = c.byQueue.LoadOrStore(queueName, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

// CountUnattributed bills one service-wide call (e.g. ListQueues) that
// is not addressed to any queue.
func (c *RequestCounter) CountUnattributed() { c.total.Add(1) }

// Total returns the billed calls so far.
func (c *RequestCounter) Total() int64 { return c.total.Load() }

// For returns the billed calls addressed to one queue.
func (c *RequestCounter) For(queueName string) int64 {
	if v, ok := c.byQueue.Load(queueName); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// Service is a namespace of queues, the moral equivalent of one SQS
// account endpoint.
type Service struct {
	cfg Config
	// mu guards only the queue namespace; message operations take the
	// per-queue lock instead.
	mu     sync.RWMutex
	queues map[string]*queueState
	// billing counts every service call for the pricing model.
	billing RequestCounter
	// slots throttles billed calls to cfg.ServiceConcurrency concurrent
	// requests of cfg.ServiceTime each; nil when the capacity simulation
	// is off.
	slots chan struct{}
	// met holds this service's telemetry instruments; nil when
	// cfg.Metrics is unset, and every instrumentation site checks that
	// first so the uninstrumented path pays one branch, not a clock read.
	met *serviceMetrics
	// dur is the journaling state behind Config.Durability; nil for
	// ephemeral services.
	dur *durableState
	// halted flips once at Halt; haltCh is closed then so blocked long
	// polls wake and fail.
	halted atomic.Bool
	haltCh chan struct{}
}

// serviceOps is the set of message-path operations that get their own
// latency histogram. Receive latency includes any long-poll wait the
// caller asked for — a blocked poll is real request latency from the
// service's point of view.
var serviceOps = []string{
	"send", "send_batch", "receive", "delete", "delete_batch",
	"change_visibility", "transfer", "count", "purge",
}

// serviceMetrics is a Service's instrument set, created once at
// NewService so the request path never touches the registry lock.
type serviceMetrics struct {
	reg  *telemetry.Registry
	name string // svc label, may be empty
	ops  map[string]*telemetry.Histogram
	// rates caches per-queue request-rate instruments (name → *Rate),
	// mirroring RequestCounter's per-queue index.
	rates sync.Map
}

func newServiceMetrics(reg *telemetry.Registry, svc string) *serviceMetrics {
	m := &serviceMetrics{reg: reg, name: svc, ops: make(map[string]*telemetry.Histogram, len(serviceOps))}
	for _, op := range serviceOps {
		m.ops[op] = reg.Histogram(m.series("queue_op_ns", "op", op))
	}
	return m
}

// series builds an instrument name, folding in the svc label when set.
func (m *serviceMetrics) series(base, key, value string) string {
	if m.name != "" {
		if key == "" {
			return fmt.Sprintf("%s{svc=%q}", base, m.name)
		}
		return fmt.Sprintf("%s{svc=%q,%s=%q}", base, m.name, key, value)
	}
	if key == "" {
		return base
	}
	return telemetry.Label(base, key, value)
}

// markQueue bumps the per-queue request rate.
func (m *serviceMetrics) markQueue(queueName string) {
	v, ok := m.rates.Load(queueName)
	if !ok {
		v, _ = m.rates.LoadOrStore(queueName, m.reg.Rate(m.series("queue_requests", "queue", queueName)))
	}
	v.(*telemetry.Rate).Mark(1)
}

// opStart stamps the beginning of an instrumented operation; the zero
// time when the service is uninstrumented.
func (s *Service) opStart() time.Time {
	if s.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// opDone records one operation's latency (paired with opStart, usually
// via defer so the args are stamped on entry).
func (s *Service) opDone(op string, start time.Time) {
	if s.met == nil {
		return
	}
	s.met.ops[op].Observe(time.Since(start))
}

// bodyBuckets pools message-body buffers in power-of-two size classes
// (64 B … 1 MiB): the Send-side copy is the queue hot path's dominant
// allocation, and a steady-state send/receive/delete workload churns
// one buffer per message without the pool. Buffers are taken at
// SendMessage and returned at DeleteMessage — the only point where the
// caller has proven (by presenting the latest receipt) that the
// message's life is over. Purge and DeleteQueue deliberately leave
// buffers to the garbage collector: they can race with consumers still
// holding leases, and a freed-under-the-reader buffer is a correctness
// bug while an unpooled one is only a missed optimization.
const (
	minBodyBucket   = 64
	bodyBucketCount = 15 // largest class: 64 << 14 = 1 MiB
)

var bodyBuckets [bodyBucketCount]sync.Pool

// bodyBucketIndex returns the smallest size class holding n bytes, or
// -1 when n exceeds the largest class (such bodies are not pooled).
func bodyBucketIndex(n int) int {
	size := minBodyBucket
	for i := 0; i < bodyBucketCount; i++ {
		if n <= size {
			return i
		}
		size <<= 1
	}
	return -1
}

// bodyGet returns an n-byte buffer backed by its size class, or a
// plain allocation for oversized bodies.
func bodyGet(n int) []byte {
	i := bodyBucketIndex(n)
	if i < 0 {
		return make([]byte, n)
	}
	if v := bodyBuckets[i].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, minBodyBucket<<i)
}

// bodyPut recycles a buffer whose capacity is exactly one of the size
// classes; anything else (oversized bodies, buffers from plain append)
// is left to the garbage collector.
func bodyPut(b []byte) {
	c := cap(b)
	i := bodyBucketIndex(c)
	if i < 0 || minBodyBucket<<i != c {
		return
	}
	b = b[:c]
	bodyBuckets[i].Put(&b)
}

// message is the stored form of one queued item. A live message is in
// exactly one of the queue's two delivery structures: the visible list
// (elem != nil) or the in-flight heap (heapIdx >= 0).
type message struct {
	id        string
	body      []byte
	visibleAt time.Time
	receives  int
	receipt   string
	elem      *list.Element // position in queueState.visible, nil if in flight
	heapIdx   int           // position in queueState.inflight, -1 if visible
}

type queueState struct {
	name string
	// poolBodies enables recycling of message-body buffers on delete.
	// It is off when the service injects duplicate deliveries: a
	// duplicate hands the same stored buffer to two receivers without a
	// second copy, so the first delete would recycle a buffer the other
	// receiver legitimately still reads.
	poolBodies bool

	mu  sync.Mutex
	rng *rand.Rand
	// visible holds deliverable messages in delivery order: arrivals at
	// the back, expired redeliveries at the front (approximating their
	// original arrival position).
	visible *list.List
	// inflight orders leased messages by the time they become visible
	// again, so expiry processing pops only what actually expired.
	inflight inflightHeap
	// byReceipt indexes live messages by their latest receipt handle for
	// O(log n) DeleteMessage / ChangeVisibility.
	byReceipt map[string]*message
	// byID indexes live messages by message ID — the stable name
	// journal records refer to across restarts, where receipt handles
	// rotate per delivery.
	byID   map[string]*message
	nextID int
	// notify is closed to broadcast "a message may have become
	// visible" to long-poll waiters; nil while nobody waits.
	notify chan struct{}
	// dead is set when the queue is deleted so blocked receivers fail
	// with ErrNoSuchQueue instead of waiting forever.
	dead bool
}

// inflightHeap is a min-heap of in-flight messages by visibleAt.
type inflightHeap []*message

func (h inflightHeap) Len() int           { return len(h) }
func (h inflightHeap) Less(i, j int) bool { return h[i].visibleAt.Before(h[j].visibleAt) }
func (h inflightHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *inflightHeap) Push(x any)        { m := x.(*message); m.heapIdx = len(*h); *h = append(*h, m) }
func (h *inflightHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	m.heapIdx = -1
	*h = old[:n-1]
	return m
}

// Errors returned by the service. Consumers must match them with
// errors.Is, never by substring: the HTTP client reconstructs them from
// status codes with extra context wrapped around the sentinel, and the
// shard router relies on errors.Is to tell "queue deleted" apart from
// "message owned by another shard".
var (
	ErrNoSuchQueue = errors.New("queue: no such queue")
	ErrQueueExists = errors.New("queue: queue already exists")
	// ErrStaleReceipt rejects a receipt handle that is not the message's
	// latest lease — the message timed out and was redelivered, or the
	// handle never existed. Only the latest receipt is authoritative,
	// matching SQS.
	ErrStaleReceipt   = errors.New("queue: invalid or stale receipt handle")
	ErrEmptyQueueName = errors.New("queue: empty queue name")
	ErrBatchSize      = fmt.Errorf("queue: batch must hold 1..%d entries", MaxBatch)
	// ErrNotPrivileged rejects a message transfer from a caller without
	// access to the privileged admin surface. Local in-process callers
	// are always trusted (whoever holds the *Service is the operator);
	// the sentinel is produced by the HTTP layer, where the transfer
	// endpoint must be explicitly provisioned with an admin token.
	ErrNotPrivileged = errors.New("queue: message transfer requires the privileged admin surface")
	// ErrBadTransfer rejects a transfer item carrying a negative
	// delivery count.
	ErrBadTransfer = errors.New("queue: transfer receive count must be non-negative")
)

// API is the queue-service surface shared by every implementation: the
// in-process Service, the HTTPClient speaking to a remote service, and
// shard.Router fanning one namespace across many services. Consumers
// (classiccloud, broker) program against this interface, so a
// deployment can swap a single service for a sharded front without
// touching them.
type API interface {
	CreateQueue(name string) error
	DeleteQueue(name string) error
	ListQueues() []string
	SendMessage(queueName string, body []byte) (string, error)
	SendMessageBatch(queueName string, bodies [][]byte) ([]string, error)
	ReceiveMessage(queueName string, visibility time.Duration) (Message, bool, error)
	ReceiveMessageWait(queueName string, visibility, wait time.Duration) (Message, bool, error)
	ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]Message, error)
	DeleteMessage(queueName, receiptHandle string) error
	DeleteMessageBatch(queueName string, receipts []string) ([]error, error)
	ChangeVisibility(queueName, receiptHandle string, d time.Duration) error
	ApproximateCount(queueName string) (visible, inflight int, err error)
	Purge(queueName string) error
	APIRequests() int64
	APIRequestsFor(queueName string) int64
}

// TraceScoper is optionally implemented by API implementations that can
// bind a request/trace ID to their outgoing traffic: HTTPClient injects
// it as the telemetry.TraceHeader on every request, and shard.Router
// threads it through to whichever backend serves the call. WithTrace
// returns a scoped view sharing all state with the receiver — the
// original keeps working untraced, and scoped views are cheap enough to
// create per job or per request. The in-process Service is a terminal
// hop and does not implement it.
type TraceScoper interface {
	WithTrace(traceID string) API
}

// DepthReporter is an optional unbilled diagnostic surface: one queue's
// live depth, read without counting as an API request and without
// mutating delivery state. Stats scrapers prefer it over
// ApproximateCount so observing a backlog does not inflate the billing
// reported next to it; implementations with no unbilled path (a remote
// HTTPClient, where the probe is a real request) simply don't
// implement it.
type DepthReporter interface {
	QueueDepth(queueName string) (visible, inflight int, err error)
}

// TransferItem is one message moved by the privileged transfer API:
// its body plus the delivery count it had already accumulated on its
// source queue. Receives counts deliveries so far — a transferred
// message's next delivery reports Receives+1, exactly as if every
// prior delivery had happened on the destination queue.
type TransferItem struct {
	Body     []byte `json:"body"`
	Receives int    `json:"receives"`
}

// Transferrer is the privileged migration surface, deliberately NOT
// part of API: it lets an operator-level caller (the shard router's
// drain-and-forward migration) enqueue a message that keeps its prior
// delivery count, so moving a queue between shards does not reset
// MaxReceives poison-detection progress. Ordinary producers must use
// SendMessage, which always starts messages at zero deliveries.
// Implemented by *Service (in-process callers are trusted), by
// *HTTPClient carrying an admin token, and by the shard router
// (forwarding to the owning shard), so routers can front routers.
type Transferrer interface {
	// TransferIn enqueues body with `receives` prior deliveries,
	// billed as one request to the destination queue.
	TransferIn(queueName string, body []byte, receives int) (string, error)
	// TransferInBatch enqueues up to MaxBatch items as one billed
	// request. Items are validated before anything is enqueued or
	// billed: one negative receive count rejects the whole batch.
	TransferInBatch(queueName string, items []TransferItem) ([]string, error)
}

// Recoverer is the durability capability: implementations rebuild
// their state from a journal and must do so (once) before taking
// traffic. Implemented by *Service when Config.Durability is set.
type Recoverer interface {
	Recover() error
}

// Pinger is the liveness capability: a probe cheaper than any billed
// call, returning nil while the implementation can serve traffic.
// Shard failover health checks prefer it over real requests.
type Pinger interface {
	Ping() error
}

var (
	_ API           = (*Service)(nil)
	_ Transferrer   = (*Service)(nil)
	_ DepthReporter = (*Service)(nil)
	_ Recoverer     = (*Service)(nil)
	_ Pinger        = (*Service)(nil)
)

// NewService creates a queue service.
func NewService(cfg Config) *Service {
	s := &Service{
		cfg:    cfg.withDefaults(),
		queues: make(map[string]*queueState),
		haltCh: make(chan struct{}),
	}
	if s.cfg.Durability != nil {
		s.dur = newDurableState(s.cfg.Durability)
	}
	if s.cfg.ServiceTime > 0 {
		s.slots = make(chan struct{}, s.cfg.ServiceConcurrency)
	}
	if s.cfg.Metrics != nil {
		s.met = newServiceMetrics(s.cfg.Metrics, s.cfg.MetricsName)
		s.cfg.Metrics.GaugeFunc(s.met.series("queue_backlog_visible", "", ""), func() int64 {
			v, _ := s.backlog()
			return v
		})
		s.cfg.Metrics.GaugeFunc(s.met.series("queue_backlog_inflight", "", ""), func() int64 {
			_, i := s.backlog()
			return i
		})
	}
	return s
}

// backlog sums visible and in-flight messages across every queue — the
// live depth gauges. It reads the maintained structure sizes without
// releasing expired leases (that would make a metrics scrape mutate
// delivery state), so a long-idle queue may report in-flight messages
// whose leases have lapsed.
func (s *Service) backlog() (visible, inflight int64) {
	s.mu.RLock()
	queues := make([]*queueState, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.RUnlock()
	for _, q := range queues {
		q.mu.Lock()
		visible += int64(q.visible.Len())
		inflight += int64(q.inflight.Len())
		q.mu.Unlock()
	}
	return visible, inflight
}

// QueueDepth reports one queue's live depth (DepthReporter): the
// maintained structure sizes, unbilled and without releasing expired
// leases — see backlog for why a scrape must not mutate delivery state.
func (s *Service) QueueDepth(queueName string) (visible, inflight int, err error) {
	q, err := s.getQueue(queueName)
	if err != nil {
		return 0, 0, err
	}
	q.mu.Lock()
	visible, inflight = q.visible.Len(), q.inflight.Len()
	q.mu.Unlock()
	return visible, inflight, nil
}

// APIRequests returns the total number of billed API calls so far.
func (s *Service) APIRequests() int64 {
	return s.billing.Total()
}

// APIRequestsFor returns the billed API calls addressed to one queue
// (service-wide calls like ListQueues are not attributed).
func (s *Service) APIRequestsFor(queueName string) int64 {
	return s.billing.For(queueName)
}

// count bills one API call addressed to queueName. With ServiceTime set
// it also charges the simulated request-processing cost, before any
// lock is taken, so concurrent callers queue on the service's capacity
// rather than on its state.
func (s *Service) count(queueName string) {
	s.billing.Count(queueName)
	if s.met != nil {
		s.met.markQueue(queueName)
	}
	if s.slots != nil {
		s.slots <- struct{}{}
		time.Sleep(s.cfg.ServiceTime)
		<-s.slots
	}
}

// getQueue resolves a live queue by name.
func (s *Service) getQueue(name string) (*queueState, error) {
	s.mu.RLock()
	q := s.queues[name]
	s.mu.RUnlock()
	if q == nil {
		return nil, ErrNoSuchQueue
	}
	return q, nil
}

// queueSeed derives a per-queue deterministic rng stream from the
// service seed and the queue name.
func queueSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// CreateQueue registers a new queue. The name is validated before the
// call is billed, so a rejected empty name neither counts as a request
// nor grows the per-queue billing index.
func (s *Service) CreateQueue(name string) error {
	if name == "" {
		return ErrEmptyQueueName
	}
	if s.halted.Load() {
		return ErrHalted
	}
	s.count(name)
	return s.durAppend(func(ds *durableState) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.queues[name]; ok {
			return ErrQueueExists
		}
		if ds != nil {
			if err := ds.append(&durRecord{Op: opCreateQueue, Q: name}); err != nil {
				return err
			}
		}
		s.queues[name] = s.newQueueStateLocked(name)
		return nil
	})
}

// DeleteQueue removes a queue and its messages. Receivers blocked in a
// long poll on the queue wake with ErrNoSuchQueue.
func (s *Service) DeleteQueue(name string) error {
	if s.halted.Load() {
		return ErrHalted
	}
	s.count(name)
	return s.durAppend(func(ds *durableState) error {
		s.mu.Lock()
		q, ok := s.queues[name]
		if !ok {
			s.mu.Unlock()
			return ErrNoSuchQueue
		}
		// The delete record is appended under q.mu so it serializes
		// against in-flight message records on this queue: no send can
		// land in the journal after the queue's deletion.
		q.mu.Lock()
		if ds != nil {
			if err := ds.append(&durRecord{Op: opDeleteQueue, Q: name}); err != nil {
				q.mu.Unlock()
				s.mu.Unlock()
				return err
			}
		}
		delete(s.queues, name)
		s.mu.Unlock()
		q.dead = true
		q.broadcastLocked()
		q.mu.Unlock()
		return nil
	})
}

// ListQueues returns queue names sorted.
func (s *Service) ListQueues() []string {
	s.billing.CountUnattributed()
	s.mu.RLock()
	names := make([]string, 0, len(s.queues))
	for n := range s.queues {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// SendMessage enqueues a message body. The body is copied once here;
// receivers are handed the stored copy and must not mutate it.
func (s *Service) SendMessage(queueName string, body []byte) (string, error) {
	defer s.opDone("send", s.opStart())
	if s.halted.Load() {
		return "", ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return "", err
	}
	ids, err := s.sendBatch(q, [][]byte{body}, nil)
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// SendMessageBatch enqueues up to MaxBatch bodies in one call, billed as
// a single API request — the SQS batch-pricing lever that cuts the
// per-message cost the paper's Table 4 prices at one request each.
func (s *Service) SendMessageBatch(queueName string, bodies [][]byte) ([]string, error) {
	if len(bodies) == 0 || len(bodies) > MaxBatch {
		return nil, ErrBatchSize
	}
	defer s.opDone("send_batch", s.opStart())
	if s.halted.Load() {
		return nil, ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return nil, err
	}
	return s.sendBatch(q, bodies, nil)
}

// TransferIn enqueues a message carrying `receives` prior deliveries —
// the privileged count-preserving primitive queue migration uses. The
// next delivery reports receives+1.
func (s *Service) TransferIn(queueName string, body []byte, receives int) (string, error) {
	ids, err := s.TransferInBatch(queueName, []TransferItem{{Body: body, Receives: receives}})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// TransferInBatch enqueues up to MaxBatch transfer items as one billed
// request. Items are validated before the call is billed, so a
// malformed batch neither counts as a request nor enqueues a prefix of
// itself.
func (s *Service) TransferInBatch(queueName string, items []TransferItem) ([]string, error) {
	if len(items) == 0 || len(items) > MaxBatch {
		return nil, ErrBatchSize
	}
	for _, it := range items {
		if it.Receives < 0 {
			return nil, fmt.Errorf("%w: %d", ErrBadTransfer, it.Receives)
		}
	}
	defer s.opDone("transfer", s.opStart())
	if s.halted.Load() {
		return nil, ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(items))
	recvs := make([]int, len(items))
	for i, it := range items {
		bodies[i], recvs[i] = it.Body, it.Receives
	}
	return s.sendBatch(q, bodies, recvs)
}

// sendBatch journals (when durable) and enqueues a batch of bodies
// with prior delivery counts (nil recvs means all zero), returning the
// assigned message IDs. The journal record carries the IDs the commit
// will assign — computed from nextID before sendLocked advances it —
// so a fold reproduces them exactly.
func (s *Service) sendBatch(q *queueState, bodies [][]byte, recvs []int) ([]string, error) {
	ids := make([]string, len(bodies))
	err := s.durAppend(func(ds *durableState) error {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.dead {
			return ErrNoSuchQueue
		}
		for i := range ids {
			ids[i] = joinInt(q.name, "-", q.nextID+i+1)
		}
		if ds != nil {
			rec := &durRecord{Op: opSend, Q: q.name, IDs: ids, Bodies: bodies, Recvs: recvs, NextID: q.nextID + len(bodies)}
			if err := ds.append(rec); err != nil {
				return err
			}
		}
		for i, body := range bodies {
			r := 0
			if recvs != nil {
				r = recvs[i]
			}
			q.sendLocked(ids[i], body, r)
		}
		q.broadcastLocked()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// joinInt returns prefix+sep+n in decimal, the string
// fmt.Sprintf("%s%s%d", prefix, sep, n) builds, in one allocation.
func joinInt(prefix, sep string, n int) string {
	var digits [20]byte
	return prefix + sep + string(strconv.AppendInt(digits[:0], int64(n), 10))
}

// sendLocked appends message id — the queue's next ID — to the visible
// list with `receives` prior deliveries (0 for ordinary sends). Caller
// holds q.mu.
func (q *queueState) sendLocked(id string, body []byte, receives int) {
	q.nextID++
	m := &message{
		id:       id,
		receives: receives,
		heapIdx:  -1,
	}
	if q.poolBodies {
		m.body = bodyGet(len(body))
		copy(m.body, body)
	} else {
		m.body = append([]byte(nil), body...)
	}
	m.elem = q.visible.PushBack(m)
	q.byID[m.id] = m
}

// broadcastLocked wakes every long-poll waiter on the queue. Caller
// holds q.mu.
func (q *queueState) broadcastLocked() {
	if q.notify != nil {
		close(q.notify)
		q.notify = nil
	}
}

// notifyLocked returns the channel the next broadcastLocked closes,
// creating it on demand so broadcasts with nobody waiting allocate
// nothing. Caller holds q.mu.
func (q *queueState) notifyLocked() chan struct{} {
	if q.notify == nil {
		q.notify = make(chan struct{})
	}
	return q.notify
}

// expireLocked releases every in-flight message whose visibility timeout
// has passed, re-inserting them at the front of the visible list (the
// closest analogue of their original arrival position). Caller holds
// q.mu. Amortized O(log n) per expired message.
func (q *queueState) expireLocked(now time.Time) {
	var expired []*message
	for len(q.inflight) > 0 && !q.inflight[0].visibleAt.After(now) {
		expired = append(expired, heap.Pop(&q.inflight).(*message))
	}
	// Pops arrive in expiry order; push front in reverse so the earliest
	// expiry ends up closest to the head.
	for i := len(expired) - 1; i >= 0; i-- {
		expired[i].elem = q.visible.PushFront(expired[i])
	}
}

// delivery is one planned receive: the message, whether it is a
// duplicate delivery (stays visible), and the delivery count and
// receipt handle it will carry. Planning is separated from committing
// so a durable service can journal the whole batch between the two —
// the plan mutates nothing but the rng.
type delivery struct {
	m        *message
	dup      bool
	receives int
	receipt  string
}

// planReceivesLocked selects up to max deliverable messages without
// mutating queue state, reproducing receive semantics exactly: each
// pick is uniform over the first ShuffleWindow still-deliverable
// visible messages (non-duplicate picks are virtually hidden for later
// picks in the same batch, duplicates stay eligible), and the rng draw
// sequence matches what sequential single receives would consume.
// Caller holds q.mu and has already run expireLocked. The plan is
// appended to plan, which callers pass with room for max deliveries.
func (s *Service) planReceivesLocked(q *queueState, max int, plan []delivery) []delivery {
	var hiddenBuf [MaxBatch]*message
	var candBuf [16]*message
	hidden := hiddenBuf[:0]
	for len(plan) < max {
		cands := candBuf[:0]
	visible:
		for e := q.visible.Front(); e != nil && len(cands) < s.cfg.ShuffleWindow; e = e.Next() {
			m := e.Value.(*message)
			for _, h := range hidden {
				if h == m {
					continue visible
				}
			}
			cands = append(cands, m)
		}
		if len(cands) == 0 {
			break
		}
		m := cands[q.rng.Intn(len(cands))]
		dup := s.cfg.DuplicateProb > 0 && q.rng.Float64() < s.cfg.DuplicateProb
		recvs := m.receives + 1
		for i := range plan {
			if plan[i].m == m {
				recvs++
			}
		}
		plan = append(plan, delivery{
			m:        m,
			dup:      dup,
			receives: recvs,
			receipt:  joinInt(m.id, "#r", recvs),
		})
		if !dup {
			hidden = append(hidden, m)
		}
	}
	return plan
}

// commitDeliveriesLocked applies a planned batch: delivery counts,
// receipt rotation, and lease placement (duplicates stay visible).
// Caller holds q.mu; on a durable service the batch's journal record
// has already been appended.
func (q *queueState) commitDeliveriesLocked(plan []delivery, now time.Time, visibility time.Duration) []Message {
	out := make([]Message, 0, len(plan))
	for i := range plan {
		d := &plan[i]
		m := d.m
		m.receives = d.receives
		if m.receipt != "" {
			delete(q.byReceipt, m.receipt)
		}
		m.receipt = d.receipt
		q.byReceipt[m.receipt] = m
		if !d.dup {
			q.visible.Remove(m.elem)
			m.elem = nil
			m.visibleAt = now.Add(visibility)
			heap.Push(&q.inflight, m)
		}
		out = append(out, Message{
			ID:            m.id,
			Body:          m.body, // stored copy; read-only contract
			ReceiptHandle: m.receipt,
			Receives:      m.receives,
		})
	}
	return out
}

// recvRecord renders a planned batch as its journal record. Vis
// carries the lease expiry each non-duplicate commit will set.
func recvRecord(q *queueState, plan []delivery, now time.Time, visibility time.Duration) *durRecord {
	n := len(plan)
	rec := &durRecord{
		Op: opReceive, Q: q.name, T: now,
		IDs: make([]string, 0, n), Receipts: make([]string, 0, n),
		Vis: make([]time.Time, 0, n), Dup: make([]bool, 0, n),
	}
	for i := range plan {
		d := &plan[i]
		rec.IDs = append(rec.IDs, d.m.id)
		rec.Receipts = append(rec.Receipts, d.receipt)
		if d.dup {
			rec.Vis = append(rec.Vis, time.Time{})
		} else {
			rec.Vis = append(rec.Vis, now.Add(visibility))
		}
		rec.Dup = append(rec.Dup, d.dup)
	}
	return rec
}

// ReceiveMessage pops a visible message, hiding it for the visibility
// timeout (DefaultVisibility when 0). It returns ok=false when nothing is
// visible. Delivery order is deliberately not FIFO, and with
// DuplicateProb > 0 a message may occasionally be delivered to two
// receivers at once — both SQS behaviours the paper's design tolerates.
func (s *Service) ReceiveMessage(queueName string, visibility time.Duration) (Message, bool, error) {
	return s.ReceiveMessageWait(queueName, visibility, 0)
}

// ReceiveMessageWait is ReceiveMessage with SQS-style long polling: when
// the queue has nothing visible it blocks until a message arrives, an
// in-flight message's visibility expires, or the wait time elapses,
// instead of forcing the caller into a sleep loop. wait <= 0 returns
// immediately.
func (s *Service) ReceiveMessageWait(queueName string, visibility, wait time.Duration) (Message, bool, error) {
	msgs, err := s.receiveBatchWait(queueName, visibility, 1, wait)
	if err != nil || len(msgs) == 0 {
		return Message{}, false, err
	}
	return msgs[0], true, nil
}

// ReceiveMessageBatch receives up to max (≤ MaxBatch) messages in one
// call, billed as a single API request, long-polling up to wait when the
// queue is empty. It returns an empty slice — not an error — when
// nothing became visible in time.
func (s *Service) ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]Message, error) {
	if max <= 0 || max > MaxBatch {
		return nil, ErrBatchSize
	}
	return s.receiveBatchWait(queueName, visibility, max, wait)
}

// pollState is what one receive attempt reports back to the long-poll
// loop: the clock reading it used and — when it delivered nothing —
// the wake channels captured atomically with the emptiness check.
type pollState struct {
	now      time.Time
	notify   chan struct{}
	expiryIn time.Duration // time to earliest in-flight expiry; 0 = none
}

// receiveBatchWait is the shared receive core: one billed request, up to
// max messages, blocking up to wait for the first one. Each attempt is
// plan → (journal) → commit so a durable service records the batch
// before any caller can observe it.
func (s *Service) receiveBatchWait(queueName string, visibility time.Duration, max int, wait time.Duration) ([]Message, error) {
	defer s.opDone("receive", s.opStart())
	if s.halted.Load() {
		return nil, ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return nil, err
	}
	if visibility <= 0 {
		visibility = s.cfg.DefaultVisibility
	}
	// The overall timer caps real blocking time even under a FakeClock
	// whose time never advances, so stopping a worker mid-poll cannot
	// deadlock.
	var overallC <-chan time.Time
	if wait > 0 {
		overall := time.NewTimer(wait)
		defer overall.Stop()
		overallC = overall.C
	}
	deadline := s.cfg.Clock.Now().Add(wait)
	for {
		// Grab the advance channel before inspecting state: a clock
		// advance after this point closes exactly this channel, so the
		// select below cannot miss it.
		var advC <-chan struct{}
		if an, ok := s.cfg.Clock.(AdvanceNotifier); ok {
			advC = an.AdvanceCh()
		}
		if s.halted.Load() {
			return nil, ErrHalted
		}
		var out []Message
		var ps pollState
		err := s.durAppend(func(ds *durableState) error {
			q.mu.Lock()
			defer q.mu.Unlock()
			if q.dead {
				return ErrNoSuchQueue
			}
			ps.now = s.cfg.Clock.Now()
			q.expireLocked(ps.now)
			var planBuf [MaxBatch]delivery
			plan := s.planReceivesLocked(q, max, planBuf[:0])
			if len(plan) > 0 {
				if ds != nil {
					if err := ds.append(recvRecord(q, plan, ps.now, visibility)); err != nil {
						return err
					}
				}
				out = q.commitDeliveriesLocked(plan, ps.now, visibility)
				return nil
			}
			// Nothing deliverable: capture the wake channels while still
			// holding the lock so a send between here and the select
			// below cannot slip past unnoticed.
			ps.notify = q.notifyLocked()
			if len(q.inflight) > 0 {
				if d := q.inflight[0].visibleAt.Sub(ps.now); d > 0 {
					ps.expiryIn = d
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(out) > 0 || wait <= 0 || !ps.now.Before(deadline) {
			return out, nil
		}
		// Wake when the earliest in-flight lease expires.
		var expiry *time.Timer
		var expiryC <-chan time.Time
		if ps.expiryIn > 0 {
			expiry = time.NewTimer(ps.expiryIn)
			expiryC = expiry.C
		}
		select {
		case <-ps.notify:
		case <-advC:
		case <-expiryC:
		case <-s.haltCh:
			// Loop: the halted check at the top fails the poll.
		case <-overallC:
			if expiry != nil {
				expiry.Stop()
			}
			return nil, nil
		}
		if expiry != nil {
			expiry.Stop()
		}
	}
}

// DeleteMessage acknowledges a message by its most recent receipt handle.
// A stale handle (the message timed out and was redelivered) returns
// ErrStaleReceipt, matching SQS's contract that only the latest receipt
// is authoritative. The message is removed from every index immediately,
// so deleted messages occupy no memory and slow no later operation.
func (s *Service) DeleteMessage(queueName, receiptHandle string) error {
	defer s.opDone("delete", s.opStart())
	if s.halted.Load() {
		return ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return err
	}
	return s.durAppend(func(ds *durableState) error {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.dead {
			// Racing DeleteQueue: the delq record is already journaled, so
			// appending an opDelete for this queue now would poison replay.
			return ErrNoSuchQueue
		}
		m, ok := q.byReceipt[receiptHandle]
		if !ok {
			return ErrStaleReceipt
		}
		if ds != nil {
			if err := ds.append(&durRecord{Op: opDelete, Q: q.name, IDs: []string{m.id}}); err != nil {
				return err
			}
		}
		q.removeLocked(m)
		return nil
	})
}

// DeleteMessageBatch acknowledges up to MaxBatch messages in one call,
// billed as a single API request. The returned slice has one entry per
// receipt: nil on success, ErrStaleReceipt for stale handles — partial
// failure does not abort the rest of the batch, matching SQS.
func (s *Service) DeleteMessageBatch(queueName string, receipts []string) ([]error, error) {
	if len(receipts) == 0 || len(receipts) > MaxBatch {
		return nil, ErrBatchSize
	}
	defer s.opDone("delete_batch", s.opStart())
	if s.halted.Load() {
		return nil, ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return nil, err
	}
	results := make([]error, len(receipts))
	err = s.durAppend(func(ds *durableState) error {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.dead {
			return ErrNoSuchQueue
		}
		// Claim receipts as they validate so a receipt repeated within
		// the batch fails its second entry, exactly like sequential
		// deletes would.
		var victimBuf [MaxBatch]*message
		victims := victimBuf[:0]
		for i, r := range receipts {
			m, ok := q.byReceipt[r]
			if !ok {
				results[i] = ErrStaleReceipt
				continue
			}
			delete(q.byReceipt, r)
			victims = append(victims, m)
		}
		if len(victims) == 0 {
			return nil
		}
		if ds != nil {
			rec := &durRecord{Op: opDelete, Q: q.name, IDs: make([]string, len(victims))}
			for i, m := range victims {
				rec.IDs[i] = m.id
			}
			if err := ds.append(rec); err != nil {
				for _, m := range victims {
					q.byReceipt[m.receipt] = m
				}
				return err
			}
		}
		for _, m := range victims {
			q.removeLocked(m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// removeLocked removes a live message from every index, recycling its
// body buffer when pooling is on. Caller holds q.mu.
func (q *queueState) removeLocked(m *message) {
	if m.elem != nil {
		q.visible.Remove(m.elem)
		m.elem = nil
	} else if m.heapIdx >= 0 {
		heap.Remove(&q.inflight, m.heapIdx)
	}
	if m.receipt != "" {
		delete(q.byReceipt, m.receipt)
	}
	delete(q.byID, m.id)
	if q.poolBodies {
		bodyPut(m.body)
		m.body = nil
	}
}

// ChangeVisibility extends or shrinks the invisibility of an in-flight
// message (SQS ChangeMessageVisibility), used by long-running workers to
// keep ownership of a task. O(log n) by receipt handle.
func (s *Service) ChangeVisibility(queueName, receiptHandle string, d time.Duration) error {
	defer s.opDone("change_visibility", s.opStart())
	if s.halted.Load() {
		return ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return err
	}
	return s.durAppend(func(ds *durableState) error {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.dead {
			return ErrNoSuchQueue
		}
		m, ok := q.byReceipt[receiptHandle]
		if !ok {
			return ErrStaleReceipt
		}
		now := s.cfg.Clock.Now()
		visAt := now.Add(d)
		if ds != nil {
			rec := &durRecord{Op: opVisibility, Q: q.name, T: now, IDs: []string{m.id}, Vis: []time.Time{visAt}}
			if err := ds.append(rec); err != nil {
				return err
			}
		}
		q.placeLocked(m, visAt, now)
		return nil
	})
}

// placeLocked moves a message to match a new visibleAt relative to now
// — the ChangeVisibility placement rules, shared with the journal
// fold. Caller holds q.mu.
func (q *queueState) placeLocked(m *message, visibleAt, now time.Time) {
	old := m.visibleAt
	m.visibleAt = visibleAt
	switch {
	case m.visibleAt.After(now) && m.elem != nil:
		// Re-hide a currently visible message (e.g. its lease expired but
		// it was not yet redelivered).
		q.visible.Remove(m.elem)
		m.elem = nil
		heap.Push(&q.inflight, m)
	case m.visibleAt.After(now):
		heap.Fix(&q.inflight, m.heapIdx)
	case m.elem == nil:
		// Released early: make it deliverable now and wake waiters.
		heap.Remove(&q.inflight, m.heapIdx)
		m.elem = q.visible.PushFront(m)
		q.broadcastLocked()
	}
	if m.visibleAt.Before(old) && m.heapIdx >= 0 {
		// The lease shrank but is still in the future: wake waiters so
		// their expiry timers re-arm against the new, earlier deadline.
		q.broadcastLocked()
	}
}

// ApproximateCount reports visible and in-flight (invisible, undeleted)
// message counts. Like SQS, the numbers are approximate from the caller's
// perspective because they race with concurrent operations — but each
// snapshot is exact and O(expired) to produce: the maintained structure
// sizes are read after releasing newly expired leases, with no scan over
// the message history.
func (s *Service) ApproximateCount(queueName string) (visible, inflight int, err error) {
	defer s.opDone("count", s.opStart())
	if s.halted.Load() {
		return 0, 0, ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return 0, 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(s.cfg.Clock.Now())
	return q.visible.Len(), q.inflight.Len(), nil
}

// Purge removes every message from a queue.
func (s *Service) Purge(queueName string) error {
	defer s.opDone("purge", s.opStart())
	if s.halted.Load() {
		return ErrHalted
	}
	s.count(queueName)
	q, err := s.getQueue(queueName)
	if err != nil {
		return err
	}
	return s.durAppend(func(ds *durableState) error {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.dead {
			return ErrNoSuchQueue
		}
		if ds != nil {
			if err := ds.append(&durRecord{Op: opPurge, Q: q.name}); err != nil {
				return err
			}
		}
		q.purgeLocked()
		return nil
	})
}

// purgeLocked drops every message and index. Caller holds q.mu. Body
// buffers are left to the garbage collector — see bodyBuckets for why
// a purge must not recycle buffers consumers may still read.
func (q *queueState) purgeLocked() {
	q.visible.Init()
	q.inflight = nil
	q.byReceipt = make(map[string]*message)
	q.byID = make(map[string]*message)
}

// Halt kills the service in place: every subsequent operation — and
// every long poll already blocked — fails with ErrHalted, while
// in-memory state stays exactly as it was, like a process that took
// SIGKILL. Halt never touches the journal (that is the point: a
// durable deployment recovers by folding the journal into a fresh
// service, or by promoting a Follower — see shard failover).
func (s *Service) Halt() {
	if s.halted.Swap(true) {
		return
	}
	close(s.haltCh)
}

// Ping reports liveness (Pinger): nil while the service accepts
// traffic, ErrHalted after Halt. It is unbilled and lock-free — the
// cheapest possible health probe.
func (s *Service) Ping() error {
	if s.halted.Load() {
		return ErrHalted
	}
	return nil
}
