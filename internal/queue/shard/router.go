package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
	"repro/internal/telemetry"
)

// Errors returned by the router itself; data-plane calls return the
// queue package's sentinels so consumers cannot tell a router from a
// single service.
var (
	ErrNoShards    = errors.New("shard: no shards registered")
	ErrShardExists = errors.New("shard: shard id already registered")
	ErrNoSuchShard = errors.New("shard: no such shard")
	ErrBadShardID  = errors.New("shard: shard id must be non-empty and must not contain '~'")
	// ErrBadGroup rejects an explicit placement group containing the
	// group separator: "job-7/tasks" as a group would hash the literal
	// string while the group's own queues hash "job-7", silently
	// breaking the co-location the caller asked for.
	ErrBadGroup = errors.New("shard: placement group must not contain '/'")
	// ErrGroupPinned rejects a split of a group that opted into strict
	// co-location (PinGroup): jobs whose correctness depends on all
	// queues sharing one shard must never be spread by the load policy.
	ErrGroupPinned = errors.New("shard: placement group is pinned to one shard")
	// ErrBadSplit bounds the sub-arc count: zero or negative is
	// meaningless and an absurdly high k would shred a group finer than
	// its queue count for no balance gain.
	ErrBadSplit = fmt.Errorf("shard: subgroup count must be in [1, %d]", maxSubgroups)
)

// maxSubgroups caps how many sub-arcs a split may spread a group over.
// A group rarely has more queues than this; past it the sub-arcs are
// mostly empty and every topology sweep pays for them.
const maxSubgroups = 64

// receiptSep joins the issuing shard's id to a receipt handle. Receipts
// must route to the shard that issued the lease — not the queue's
// current owner — so acknowledgements keep working while a queue
// migrates away from in-flight messages.
const receiptSep = "~"

// groupSep splits a queue name into its placement-group key and the
// queue's own name: "job-7/tasks" belongs to group "job-7".
const groupSep = "/"

// DeriveGroup returns the placement-group key a queue name implies:
// the segment before the first '/', or the whole name for an ungrouped
// name. The ring hashes this key instead of the full name, so every
// queue of one group — a job's task, monitor, and dead-letter queues —
// lands on the same shard and the job's queue traffic never crosses
// shards. An explicit group set with Router.Regroup overrides the
// derived one.
func DeriveGroup(name string) string {
	if i := strings.Index(name, groupSep); i > 0 {
		return name[:i]
	}
	return name
}

// effectiveGroup is the single definition of a queue's ring key: the
// route's explicit group when set, else the name-derived one. Every
// placement computation must agree on this rule.
func effectiveGroup(group, name string) string {
	if group != "" {
		return group
	}
	return DeriveGroup(name)
}

// subgroupIndex deterministically assigns a queue to one of k sub-arcs
// by hashing its full name. The salt keeps the assignment independent
// of the ring's own hash of the group key, and hashing the NAME (not
// the group) is what spreads a hot group: all of the group's queues
// share one group key but land on k different sub-arcs. The mapping
// depends only on (name, k), so every process — and every rebuild of
// the router — derives the same placement, which is what keeps
// receipts and in-flight messages routable across a split.
func subgroupIndex(name string, k int) int {
	return int(hash64("subgroup/"+name) % uint64(k))
}

// ringOwnerLocked is the single definition of where a queue lives:
// the owner of its effective placement group, re-derived across k
// sub-arcs while the group is split — sub-arc i is the i-th distinct
// shard after the group's hash in ring order (ring.successor), so a
// k-way split is guaranteed to reach min(k, shards) different shards.
// Co-location degrades gracefully: all of one QUEUE's traffic (and
// its receipts, and its in-flight messages) still maps to exactly one
// sub-arc, only the group's queues fan out over k of them. Caller
// holds r.mu.
func (r *Router) ringOwnerLocked(group, name string) (string, bool) {
	g := effectiveGroup(group, name)
	if k := r.splits[g]; k > 1 {
		return r.ring.successor(g, subgroupIndex(name, k))
	}
	return r.ring.owner(g)
}

func wrapReceipt(shardID, receipt string) string { return shardID + receiptSep + receipt }

func splitReceipt(wrapped string) (shardID, receipt string, ok bool) {
	i := strings.Index(wrapped, receiptSep)
	if i <= 0 {
		return "", "", false
	}
	return wrapped[:i], wrapped[i+1:], true
}

// Config tunes the router.
type Config struct {
	// ForwardInterval is how often a straggler forwarder polls the old
	// shard after a migration (default 10ms).
	ForwardInterval time.Duration
	// Metrics, when set, receives the router's instruments: per-op
	// latency histograms (router_op_ns), per-shard request rates
	// (shard_requests) and live backlog gauges (shard_backlog). Nil
	// leaves the data path uninstrumented — not even a clock read.
	Metrics *telemetry.Registry
}

const (
	// virtualNodes per shard on the hash ring. More nodes spread queues
	// more evenly at the cost of a larger ring.
	virtualNodes = 64
	// drainVisibility is the lease the migrator takes on messages it
	// streams between shards: long enough to move a batch, short enough
	// that a crashed migration redelivers quickly.
	drainVisibility = time.Minute
	// leaseHorizon bounds how long a forwarder keeps watching the old
	// shard for expiring in-flight messages. Past it the old queue is
	// left in place so outstanding receipts stay valid, but nothing is
	// forwarded any more.
	leaseHorizon = time.Hour
)

func (c Config) withDefaults() Config {
	if c.ForwardInterval == 0 {
		c.ForwardInterval = 10 * time.Millisecond
	}
	return c
}

// Router fronts N queue services with one queue.API. Queue names map to
// shards through a consistent-hash ring over their placement-group key
// (DeriveGroup, or an explicit group set with Regroup), so one group's
// queues co-locate; every data-plane call is forwarded to the owning
// shard, receipts route back to the shard that issued them, and shards
// can be added or removed at runtime with drain-and-forward queue
// migration that preserves delivery counts through the privileged
// transfer API.
type Router struct {
	// routerView, bound to this router with no trace, supplies the
	// public data-plane methods.
	routerView

	cfg Config

	// topoMu serializes topology changes (AddShard / RemoveShard) and
	// the migrations they trigger.
	topoMu sync.Mutex

	// mu guards ring, shards, routes, splits, pinned, and standbys.
	mu     sync.RWMutex
	ring   *ring
	shards map[string]queue.API
	routes map[string]*route
	// standbys maps a shard id to its registered standby (see
	// failover.go); failovers counts automatic promotions by the health
	// loop.
	standbys  map[string]*standby
	failovers atomic.Int64
	// splits maps a placement group to its sub-arc count; absent (or 1)
	// means unsplit. pinned groups opted out of splitting entirely
	// (strict co-location).
	splits map[string]int
	pinned map[string]bool

	// billing mirrors queue.Service: one request per routed call,
	// attributed to the addressed queue, so the broker's per-tenant
	// accounting works unchanged against a sharded deployment.
	billing queue.RequestCounter

	closing   chan struct{}
	closeOnce sync.Once
	fwd       sync.WaitGroup

	// met is non-nil iff Config.Metrics was set.
	met *routerMetrics
}

// routerOps is the set of routed operations that get their own latency
// histogram. The histogram brackets the whole routed call — owner
// resolution (including any wait on a frozen route), the backend hop,
// and retries — so a migration stall shows up as router latency even
// when the shard itself stayed fast.
var routerOps = []string{
	"create_queue", "delete_queue", "send", "send_batch", "receive",
	"delete", "delete_batch", "change_visibility", "transfer", "count",
	"purge",
}

// routerMetrics is the router's instrument set, created once at
// NewRouter so the request path never touches the registry lock.
type routerMetrics struct {
	reg *telemetry.Registry
	ops map[string]*telemetry.Histogram
	// shardRates caches per-shard request-rate instruments
	// (shard id → *telemetry.Rate).
	shardRates sync.Map
	// groupRates caches per-group request-rate instruments
	// (group key → *telemetry.Rate).
	groupRates sync.Map
	// gaugeMu guards seenGroups across concurrent scrapes; the backlog
	// collector zeroes gauges of groups that vanished (last queue
	// deleted) so a stale reading never lingers at its final value.
	gaugeMu    sync.Mutex
	seenGroups map[string]bool
}

func (r *Router) opStart() time.Time {
	if r.met == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *Router) opDone(op string, start time.Time) {
	if r.met == nil {
		return
	}
	r.met.ops[op].Observe(time.Since(start))
}

// markShard bumps a shard's request rate. Called wherever a routed call
// resolves a backend — owner resolution, receipt routing, batch-delete
// groups — so the rate counts backend hops, including migration retries.
func (r *Router) markShard(id string) {
	if r.met == nil || id == "" {
		return
	}
	v, ok := r.met.shardRates.Load(id)
	if !ok {
		v, _ = r.met.shardRates.LoadOrStore(id, r.met.reg.Rate(telemetry.Label("shard_requests", "shard", id)))
	}
	v.(*telemetry.Rate).Mark(1)
}

// shardRate reads a shard's current request rate (0 when
// uninstrumented or never addressed).
func (r *Router) shardRate(id string) float64 {
	if r.met == nil {
		return 0
	}
	if v, ok := r.met.shardRates.Load(id); ok {
		return v.(*telemetry.Rate).PerSecond()
	}
	return 0
}

// markGroup bumps a placement group's request rate (group_requests).
// Called beside markShard wherever a routed call resolves a backend, so
// the split policy sees which GROUP is hot, not just which shard.
func (r *Router) markGroup(g string) {
	if r.met == nil || g == "" {
		return
	}
	v, ok := r.met.groupRates.Load(g)
	if !ok {
		v, _ = r.met.groupRates.LoadOrStore(g, r.met.reg.Rate(telemetry.Label("group_requests", "group", g)))
	}
	v.(*telemetry.Rate).Mark(1)
}

// groupRate reads a group's current request rate (0 when
// uninstrumented or never addressed).
func (r *Router) groupRate(g string) float64 {
	if r.met == nil {
		return 0
	}
	if v, ok := r.met.groupRates.Load(g); ok {
		return v.(*telemetry.Rate).PerSecond()
	}
	return 0
}

// scopeTrace binds a trace ID to a backend hop when the backend can
// carry one (queue.TraceScoper — a remote shard client injects it as
// the X-Trace-Id header). The in-process Service is a terminal hop and
// passes through unscoped.
func scopeTrace(b queue.API, trace string) queue.API {
	if trace == "" || b == nil {
		return b
	}
	if ts, ok := b.(queue.TraceScoper); ok {
		return ts.WithTrace(trace)
	}
	return b
}

// route is one queue's placement.
type route struct {
	mu sync.Mutex
	// shard currently owning the queue.
	shard string
	// group is the explicit placement group set by Regroup; empty means
	// the group is derived from the queue name (DeriveGroup).
	group string
	// frozen is non-nil while the queue migrates; operations wait for
	// it to close (the thaw) and then resolve the new owner.
	frozen chan struct{}
	// dead marks a route whose queue was deleted; a pending migration
	// that has not frozen yet must abort rather than stream a deleted
	// queue's messages onto the new owner.
	dead bool
	// draining holds old shards whose in-flight stragglers a background
	// forwarder is still moving over.
	draining map[string]bool
	// moves counts completed migrations. A call that fails with
	// ErrNoSuchQueue retries when it changed since dispatch: the owner
	// ID alone cannot tell, since a queue can move away and back.
	moves int
}

var (
	_ queue.API         = (*Router)(nil)
	_ queue.Transferrer = (*Router)(nil)
	_ queue.TraceScoper = (*Router)(nil)
)

// NewRouter creates an empty router; add shards before creating queues.
func NewRouter(cfg Config) *Router {
	c := cfg.withDefaults()
	r := &Router{
		cfg:     c,
		ring:    newRing(virtualNodes),
		shards:  make(map[string]queue.API),
		routes:  make(map[string]*route),
		splits:  make(map[string]int),
		pinned:  make(map[string]bool),
		closing: make(chan struct{}),
	}
	r.routerView.r = r
	if c.Metrics != nil {
		r.met = &routerMetrics{
			reg:        c.Metrics,
			ops:        make(map[string]*telemetry.Histogram, len(routerOps)),
			seenGroups: make(map[string]bool),
		}
		for _, op := range routerOps {
			r.met.ops[op] = c.Metrics.Histogram(telemetry.Label("router_op_ns", "op", op))
		}
		// Backlog gauges are refreshed at scrape time rather than
		// maintained on the data path: depth is already tracked by each
		// shard, and a per-send gauge update would put a second write on
		// every routed call for a number only read by scrapes. One sweep
		// feeds both attribution axes — per shard and per group.
		c.Metrics.AddCollector(func(reg *telemetry.Registry) {
			byShard, byGroup := r.depthSweep()
			for id, n := range byShard {
				reg.Gauge(telemetry.Label("shard_backlog", "shard", id)).Set(n)
			}
			r.met.gaugeMu.Lock()
			for g := range r.met.seenGroups {
				if _, ok := byGroup[g]; !ok {
					reg.Gauge(telemetry.Label("group_backlog", "group", g)).Set(0)
					delete(r.met.seenGroups, g)
				}
			}
			for g, n := range byGroup {
				r.met.seenGroups[g] = true
				reg.Gauge(telemetry.Label("group_backlog", "group", g)).Set(n)
			}
			r.met.gaugeMu.Unlock()
		})
	}
	return r
}

// Close stops the background straggler forwarders and waits for them.
// Data-plane calls keep working; Close only abandons migrations'
// tail work.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.closing) })
	r.fwd.Wait()
}

// count bills one routed call addressed to queueName, through the same
// attribution model queue.Service uses.
func (r *Router) count(queueName string) { r.billing.Count(queueName) }

// APIRequests returns the total routed calls billed by the router.
func (r *Router) APIRequests() int64 { return r.billing.Total() }

// APIRequestsFor returns the routed calls addressed to one queue.
func (r *Router) APIRequestsFor(queueName string) int64 { return r.billing.For(queueName) }

// ownerBackend resolves the queue's owning shard, waiting out any
// in-progress migration, and reports the route's migration count at
// that moment. The returned backend is trace-scoped and the shard's
// request rate is bumped — every caller represents one backend hop.
func (r *Router) ownerBackend(trace, queueName string) (string, int, queue.API, error) {
	r.mu.RLock()
	rt := r.routes[queueName]
	r.mu.RUnlock()
	if rt == nil {
		return "", 0, nil, queue.ErrNoSuchQueue
	}
	id, group, moves := rt.settled()
	r.mu.RLock()
	b := r.shards[id]
	r.mu.RUnlock()
	if b == nil {
		return "", 0, nil, queue.ErrNoSuchQueue
	}
	r.markShard(id)
	if r.met != nil {
		r.markGroup(effectiveGroup(group, queueName))
	}
	return id, moves, scopeTrace(b, trace), nil
}

// settled waits out any in-progress migration of the route and returns
// its owner, explicit group and migration count.
func (rt *route) settled() (shard, group string, moves int) {
	for {
		rt.mu.Lock()
		if rt.frozen == nil {
			shard, group, moves = rt.shard, rt.group, rt.moves
			rt.mu.Unlock()
			return shard, group, moves
		}
		ch := rt.frozen
		rt.mu.Unlock()
		<-ch
	}
}

// onOwner runs fn against the queue's owning shard. When the shard
// answers ErrNoSuchQueue but the queue has migrated since the call was
// dispatched, the call retries on the current owner — the sentinel lets
// the router tell "wrong shard" from "queue deleted". It retries for
// as long as migrations keep completing under it: comparing owner IDs
// instead would miss a queue that moved away and back.
func (r *Router) onOwner(trace, queueName string, fn func(shardID string, b queue.API) error) error {
	for {
		id, moves, b, err := r.ownerBackend(trace, queueName)
		if err != nil {
			return err
		}
		err = fn(id, b)
		if err == nil || !errors.Is(err, queue.ErrNoSuchQueue) {
			return err
		}
		r.mu.RLock()
		rt := r.routes[queueName]
		r.mu.RUnlock()
		if rt == nil {
			return err
		}
		if _, _, now := rt.settled(); now == moves {
			return err
		}
	}
}

// CreateQueue places a new queue on its ring owner. The route is
// published frozen and thawed only after the backend queue exists:
// concurrent operations (and a concurrent AddShard's migration) wait
// instead of finding a route whose shard has no queue yet — a
// half-created queue migrated in that window would leave an orphan
// copy on the old owner.
func (r *Router) createQueue(trace, name string) error {
	if name == "" {
		return queue.ErrEmptyQueueName
	}
	defer r.opDone("create_queue", r.opStart())
	r.count(name)
	r.mu.Lock()
	if _, ok := r.routes[name]; ok {
		r.mu.Unlock()
		return queue.ErrQueueExists
	}
	owner, ok := r.ringOwnerLocked("", name)
	if !ok {
		r.mu.Unlock()
		return ErrNoShards
	}
	rt := &route{shard: owner, frozen: make(chan struct{}), draining: make(map[string]bool)}
	r.routes[name] = rt
	b := r.shards[owner]
	r.mu.Unlock()
	r.markShard(owner)
	if r.met != nil {
		r.markGroup(DeriveGroup(name))
	}
	err := scopeTrace(b, trace).CreateQueue(name)
	if err != nil && !errors.Is(err, queue.ErrQueueExists) {
		r.mu.Lock()
		// Only remove our own route: a concurrent DeleteQueue may have
		// removed it already and a later CreateQueue published a new
		// one, which must not be torn down by this failure.
		if r.routes[name] == rt {
			delete(r.routes, name)
		}
		r.mu.Unlock()
	} else {
		err = nil
	}
	rt.mu.Lock()
	if err != nil {
		rt.dead = true
	}
	// Never reset dead: a concurrent DeleteQueue may have marked the
	// route while we held it frozen.
	close(rt.frozen)
	rt.frozen = nil
	rt.mu.Unlock()
	return err
}

// DeleteQueue removes a queue from its owner and from every old shard
// still draining stragglers.
func (r *Router) deleteQueue(trace, name string) error {
	defer r.opDone("delete_queue", r.opStart())
	r.count(name)
	r.mu.Lock()
	rt := r.routes[name]
	if rt == nil {
		r.mu.Unlock()
		return queue.ErrNoSuchQueue
	}
	delete(r.routes, name)
	r.mu.Unlock()
	// Mark the route dead (a migration computed before the removal must
	// not stream this queue's messages anywhere) and wait out any
	// migration already in flight so the drain isn't racing the
	// teardown — once it thaws, the snapshot below covers the new owner.
	var owner string
	var olds []string
	for {
		rt.mu.Lock()
		rt.dead = true
		if rt.frozen == nil {
			owner = rt.shard
			for id := range rt.draining {
				olds = append(olds, id)
			}
			rt.mu.Unlock()
			break
		}
		ch := rt.frozen
		rt.mu.Unlock()
		<-ch
	}
	r.mu.RLock()
	b := r.shards[owner]
	oldBs := make([]queue.API, 0, len(olds))
	for _, id := range olds {
		if ob := r.shards[id]; ob != nil {
			oldBs = append(oldBs, ob)
		}
	}
	r.mu.RUnlock()
	var err error
	if b != nil {
		r.markShard(owner)
		err = scopeTrace(b, trace).DeleteQueue(name)
	}
	for _, ob := range oldBs {
		_ = scopeTrace(ob, trace).DeleteQueue(name) // forwarder may have beaten us to it
	}
	return err
}

// ListQueues returns every routed queue name, sorted.
func (r *Router) ListQueues() []string {
	r.billing.CountUnattributed()
	r.mu.RLock()
	names := make([]string, 0, len(r.routes))
	for n := range r.routes {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

func (r *Router) sendMessage(trace, queueName string, body []byte) (string, error) {
	defer r.opDone("send", r.opStart())
	r.count(queueName)
	var id string
	err := r.onOwner(trace, queueName, func(_ string, b queue.API) error {
		var err error
		id, err = b.SendMessage(queueName, body)
		return err
	})
	return id, err
}

func (r *Router) sendMessageBatch(trace, queueName string, bodies [][]byte) ([]string, error) {
	if len(bodies) == 0 || len(bodies) > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	defer r.opDone("send_batch", r.opStart())
	r.count(queueName)
	var ids []string
	err := r.onOwner(trace, queueName, func(_ string, b queue.API) error {
		var err error
		ids, err = b.SendMessageBatch(queueName, bodies)
		return err
	})
	return ids, err
}

// transferIn routes a privileged count-preserving enqueue to the
// owning shard (queue.Transferrer).
func (r *Router) transferIn(trace, queueName string, body []byte, receives int) (string, error) {
	ids, err := r.transferInBatch(trace, queueName, []queue.TransferItem{{Body: body, Receives: receives}})
	if err != nil {
		return "", err
	}
	if len(ids) == 0 {
		// A malformed remote shard answered without ids; don't panic.
		return "", fmt.Errorf("shard: transfer into %s: backend returned no ids", queueName)
	}
	return ids[0], nil
}

// TransferInBatch routes a privileged count-preserving batch enqueue
// to the owning shard, billed as one request like every routed batch
// call. The backing shard must also implement queue.Transferrer — a
// remote shard additionally needs its admin token configured, or the
// call fails with queue.ErrNotPrivileged.
func (r *Router) transferInBatch(trace, queueName string, items []queue.TransferItem) ([]string, error) {
	if len(items) == 0 || len(items) > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	for _, it := range items {
		if it.Receives < 0 {
			return nil, fmt.Errorf("%w: %d", queue.ErrBadTransfer, it.Receives)
		}
	}
	defer r.opDone("transfer", r.opStart())
	r.count(queueName)
	var ids []string
	err := r.onOwner(trace, queueName, func(id string, b queue.API) error {
		tr, ok := b.(queue.Transferrer)
		if !ok {
			return fmt.Errorf("shard: shard %s cannot accept transfers: %w", id, queue.ErrNotPrivileged)
		}
		var err error
		ids, err = tr.TransferInBatch(queueName, items)
		return err
	})
	return ids, err
}

// receiveMessageWait long-polls the owning shard; the wait happens on
// the shard so a send through the router wakes the receiver there.
func (r *Router) receiveMessageWait(trace, queueName string, visibility, wait time.Duration) (queue.Message, bool, error) {
	defer r.opDone("receive", r.opStart())
	r.count(queueName)
	var m queue.Message
	var ok bool
	err := r.onOwner(trace, queueName, func(id string, b queue.API) error {
		var err error
		m, ok, err = b.ReceiveMessageWait(queueName, visibility, wait)
		if ok {
			m.ReceiptHandle = wrapReceipt(id, m.ReceiptHandle)
		}
		return err
	})
	if err != nil {
		return queue.Message{}, false, err
	}
	return m, ok, nil
}

// receiveMessageBatch receives up to max messages from the owning shard.
func (r *Router) receiveMessageBatch(trace, queueName string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	if max <= 0 || max > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	defer r.opDone("receive", r.opStart())
	r.count(queueName)
	var msgs []queue.Message
	err := r.onOwner(trace, queueName, func(id string, b queue.API) error {
		var err error
		msgs, err = b.ReceiveMessageBatch(queueName, visibility, max, wait)
		for i := range msgs {
			msgs[i].ReceiptHandle = wrapReceipt(id, msgs[i].ReceiptHandle)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return msgs, nil
}

// receiptBackend resolves the shard a receipt was issued by. The queue
// must still be routed; a receipt whose shard is gone — or whose shard
// has since lost the queue to a migration — is stale, not missing: the
// message was moved and only its next delivery's receipt counts.
func (r *Router) receiptBackend(trace, queueName, wrapped string) (queue.API, string, error) {
	r.mu.RLock()
	rt := r.routes[queueName]
	r.mu.RUnlock()
	if rt == nil {
		return nil, "", queue.ErrNoSuchQueue
	}
	id, raw, ok := splitReceipt(wrapped)
	if !ok {
		return nil, "", fmt.Errorf("shard: unroutable receipt %q: %w", wrapped, queue.ErrStaleReceipt)
	}
	r.mu.RLock()
	b := r.shards[id]
	r.mu.RUnlock()
	if b == nil {
		return nil, "", fmt.Errorf("shard: receipt from unknown shard %q: %w", id, queue.ErrStaleReceipt)
	}
	r.markShard(id)
	if r.met != nil {
		rt.mu.Lock()
		group := rt.group
		rt.mu.Unlock()
		r.markGroup(effectiveGroup(group, queueName))
	}
	return scopeTrace(b, trace), raw, nil
}

// deleteMessage acknowledges by receipt, routed to the issuing shard.
func (r *Router) deleteMessage(trace, queueName, receiptHandle string) error {
	defer r.opDone("delete", r.opStart())
	r.count(queueName)
	b, raw, err := r.receiptBackend(trace, queueName, receiptHandle)
	if err != nil {
		return err
	}
	err = b.DeleteMessage(queueName, raw)
	if errors.Is(err, queue.ErrNoSuchQueue) {
		return fmt.Errorf("shard: queue %s migrated off the issuing shard: %w", queueName, queue.ErrStaleReceipt)
	}
	return err
}

// deleteMessageBatch acknowledges a batch, grouping receipts by issuing
// shard; entries keep their per-receipt error positions.
func (r *Router) deleteMessageBatch(trace, queueName string, receipts []string) ([]error, error) {
	if len(receipts) == 0 || len(receipts) > queue.MaxBatch {
		return nil, queue.ErrBatchSize
	}
	defer r.opDone("delete_batch", r.opStart())
	r.count(queueName)
	r.mu.RLock()
	rt := r.routes[queueName]
	r.mu.RUnlock()
	if rt == nil {
		return nil, queue.ErrNoSuchQueue
	}
	if r.met != nil {
		rt.mu.Lock()
		group := rt.group
		rt.mu.Unlock()
		r.markGroup(effectiveGroup(group, queueName))
	}
	results := make([]error, len(receipts))
	type group struct {
		idx []int
		raw []string
	}
	groups := make(map[string]*group)
	for i, wrapped := range receipts {
		id, raw, ok := splitReceipt(wrapped)
		if !ok {
			results[i] = fmt.Errorf("shard: unroutable receipt %q: %w", wrapped, queue.ErrStaleReceipt)
			continue
		}
		g := groups[id]
		if g == nil {
			g = &group{}
			groups[id] = g
		}
		g.idx = append(g.idx, i)
		g.raw = append(g.raw, raw)
	}
	for id, g := range groups {
		r.mu.RLock()
		b := r.shards[id]
		r.mu.RUnlock()
		if b == nil {
			for _, i := range g.idx {
				results[i] = fmt.Errorf("shard: receipt from unknown shard %q: %w", id, queue.ErrStaleReceipt)
			}
			continue
		}
		r.markShard(id)
		res, err := scopeTrace(b, trace).DeleteMessageBatch(queueName, g.raw)
		if err != nil {
			perEntry := err
			if errors.Is(err, queue.ErrNoSuchQueue) {
				perEntry = fmt.Errorf("shard: queue %s migrated off shard %s: %w", queueName, id, queue.ErrStaleReceipt)
			}
			for _, i := range g.idx {
				results[i] = perEntry
			}
			continue
		}
		for k, i := range g.idx {
			results[i] = res[k]
		}
	}
	return results, nil
}

// changeVisibility adjusts a lease on the issuing shard.
func (r *Router) changeVisibility(trace, queueName, receiptHandle string, d time.Duration) error {
	defer r.opDone("change_visibility", r.opStart())
	r.count(queueName)
	b, raw, err := r.receiptBackend(trace, queueName, receiptHandle)
	if err != nil {
		return err
	}
	err = b.ChangeVisibility(queueName, raw, d)
	if errors.Is(err, queue.ErrNoSuchQueue) {
		return fmt.Errorf("shard: queue %s migrated off the issuing shard: %w", queueName, queue.ErrStaleReceipt)
	}
	return err
}

// approximateCount sums the owner's counts with any old shards still
// holding in-flight stragglers, so totals stay truthful mid-migration.
func (r *Router) approximateCount(trace, queueName string) (visible, inflight int, err error) {
	defer r.opDone("count", r.opStart())
	r.count(queueName)
	err = r.onOwner(trace, queueName, func(_ string, b queue.API) error {
		var err error
		visible, inflight, err = b.ApproximateCount(queueName)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, ob := range r.drainingBackends(trace, queueName) {
		if v, inf, derr := ob.ApproximateCount(queueName); derr == nil {
			visible += v
			inflight += inf
		}
	}
	return visible, inflight, nil
}

// purge clears the queue on its owner and on any draining old shards.
func (r *Router) purge(trace, queueName string) error {
	defer r.opDone("purge", r.opStart())
	r.count(queueName)
	err := r.onOwner(trace, queueName, func(_ string, b queue.API) error {
		return b.Purge(queueName)
	})
	if err != nil {
		return err
	}
	for _, ob := range r.drainingBackends(trace, queueName) {
		_ = ob.Purge(queueName)
	}
	return nil
}

// ---- public queue.API surface ----
//
// The data-plane methods live on routerView, a trace-bound view that
// forwards to the router's internal traced functions. Router embeds a
// view with an empty trace, so untraced calls and WithTrace views run
// the same code; latency histograms and shard rates live on the
// internal paths, so both are measured identically.

// routerView is a trace-bound view over a Router. It shares all router
// state — it only pins the trace ID forwarded on backend hops.
type routerView struct {
	r     *Router
	trace string
}

var (
	_ queue.API         = (*routerView)(nil)
	_ queue.Transferrer = (*routerView)(nil)
	_ queue.TraceScoper = (*routerView)(nil)
)

// WithTrace returns a view of the router that carries traceID through to
// every backend hop (queue.TraceScoper): a remote shard client injects
// it as the X-Trace-Id header, so one logical request stays correlatable
// from the caller through the router to the shard that served it.
func (v *routerView) WithTrace(traceID string) queue.API {
	return &routerView{r: v.r, trace: traceID}
}

// CreateQueue places a new queue on its ring owner (see createQueue).
func (v *routerView) CreateQueue(name string) error { return v.r.createQueue(v.trace, name) }

// DeleteQueue removes a queue from its owner and draining old shards.
func (v *routerView) DeleteQueue(name string) error { return v.r.deleteQueue(v.trace, name) }

func (v *routerView) ListQueues() []string { return v.r.ListQueues() }

// SendMessage enqueues on the owning shard.
func (v *routerView) SendMessage(queueName string, body []byte) (string, error) {
	return v.r.sendMessage(v.trace, queueName, body)
}

// SendMessageBatch enqueues a batch on the owning shard.
func (v *routerView) SendMessageBatch(queueName string, bodies [][]byte) ([]string, error) {
	return v.r.sendMessageBatch(v.trace, queueName, bodies)
}

// ReceiveMessage pops one message from the owning shard.
func (v *routerView) ReceiveMessage(queueName string, visibility time.Duration) (queue.Message, bool, error) {
	return v.r.receiveMessageWait(v.trace, queueName, visibility, 0)
}

// ReceiveMessageWait long-polls the owning shard.
func (v *routerView) ReceiveMessageWait(queueName string, visibility, wait time.Duration) (queue.Message, bool, error) {
	return v.r.receiveMessageWait(v.trace, queueName, visibility, wait)
}

// ReceiveMessageBatch receives up to max messages from the owning shard.
func (v *routerView) ReceiveMessageBatch(queueName string, visibility time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	return v.r.receiveMessageBatch(v.trace, queueName, visibility, max, wait)
}

// DeleteMessage acknowledges by receipt, routed to the issuing shard.
func (v *routerView) DeleteMessage(queueName, receiptHandle string) error {
	return v.r.deleteMessage(v.trace, queueName, receiptHandle)
}

// DeleteMessageBatch acknowledges a batch, grouped by issuing shard.
func (v *routerView) DeleteMessageBatch(queueName string, receipts []string) ([]error, error) {
	return v.r.deleteMessageBatch(v.trace, queueName, receipts)
}

// ChangeVisibility adjusts a lease on the issuing shard.
func (v *routerView) ChangeVisibility(queueName, receiptHandle string, d time.Duration) error {
	return v.r.changeVisibility(v.trace, queueName, receiptHandle, d)
}

// ApproximateCount sums the owner's counts with any draining old shards.
func (v *routerView) ApproximateCount(queueName string) (visible, inflight int, err error) {
	return v.r.approximateCount(v.trace, queueName)
}

// Purge clears the queue on its owner and on any draining old shards.
func (v *routerView) Purge(queueName string) error { return v.r.purge(v.trace, queueName) }

// TransferIn routes a privileged count-preserving enqueue to the owning
// shard (queue.Transferrer).
func (v *routerView) TransferIn(queueName string, body []byte, receives int) (string, error) {
	return v.r.transferIn(v.trace, queueName, body, receives)
}

// TransferInBatch routes a privileged count-preserving batch enqueue to
// the owning shard (queue.Transferrer).
func (v *routerView) TransferInBatch(queueName string, items []queue.TransferItem) ([]string, error) {
	return v.r.transferInBatch(v.trace, queueName, items)
}

func (v *routerView) APIRequests() int64                    { return v.r.APIRequests() }
func (v *routerView) APIRequestsFor(queueName string) int64 { return v.r.APIRequestsFor(queueName) }

// drainingBackends snapshots the old shards still forwarding a queue's
// stragglers. The current owner is excluded even when its forwarder has
// not exited yet (the queue migrated back onto a watched shard), so
// callers never count the live copy twice.
func (r *Router) drainingBackends(trace, queueName string) []queue.API {
	r.mu.RLock()
	rt := r.routes[queueName]
	r.mu.RUnlock()
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.draining))
	for id := range rt.draining {
		if id != rt.shard {
			ids = append(ids, id)
		}
	}
	rt.mu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]queue.API, 0, len(ids))
	for _, id := range ids {
		if b := r.shards[id]; b != nil {
			r.markShard(id)
			out = append(out, scopeTrace(b, trace))
		}
	}
	return out
}

// Shards returns the ring members, sorted.
func (r *Router) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.members()
}

// Owners snapshots the queue→shard placement.
func (r *Router) Owners() map[string]string {
	r.mu.RLock()
	routes := make(map[string]*route, len(r.routes))
	for n, rt := range r.routes {
		routes[n] = rt
	}
	r.mu.RUnlock()
	out := make(map[string]string, len(routes))
	for n, rt := range routes {
		rt.mu.Lock()
		out[n] = rt.shard
		rt.mu.Unlock()
	}
	return out
}

// ShardStat describes one shard's share of the namespace and traffic.
type ShardStat struct {
	ID string
	// OnRing is false for retired shards: removed from the ring but
	// still reachable for straggler receipts.
	OnRing bool
	// Queues currently routed to the shard.
	Queues int
	// Requests is the billed request count the shard itself observed —
	// router traffic plus migration/forwarding traffic.
	Requests int64
	// Backlog is the shard's live message depth: visible plus in-flight,
	// summed over the queues it currently owns, plus leftover stragglers
	// it still holds for queues that migrated away. Each message is
	// attributed to exactly one shard (see backlogByShard).
	Backlog int64
	// RatePerSec is the router-observed request rate to this shard,
	// averaged over the trailing 10s window. Zero when the router has no
	// metrics registry.
	RatePerSec float64
	// Weight is the shard's ring-arc weight (1 = fair share of the key
	// space); 0 for a retired shard no longer on the ring.
	Weight float64
}

// Stats aggregates per-shard placement, billing, live depth, and load —
// the sharded view of the attribution model consumers already use per
// queue.
func (r *Router) Stats() []ShardStat {
	owners := r.Owners()
	perShard := make(map[string]int)
	for _, id := range owners {
		perShard[id]++
	}
	r.mu.RLock()
	ids := make([]string, 0, len(r.shards))
	for id := range r.shards {
		ids = append(ids, id)
	}
	backends := make(map[string]queue.API, len(r.shards))
	for id, b := range r.shards {
		backends[id] = b
	}
	onRing := make(map[string]bool, len(r.ring.ids))
	for id := range r.ring.ids {
		onRing[id] = true
	}
	weights := make(map[string]float64, len(r.ring.weights))
	for id, w := range r.ring.weights {
		weights[id] = w
	}
	r.mu.RUnlock()
	sort.Strings(ids)
	// Read billed request counts BEFORE probing backlogs: depth probes
	// against remote shards are themselves billed requests, and reading
	// in the other order would report Requests inflated by this very
	// Stats call.
	requests := make(map[string]int64, len(ids))
	for _, id := range ids {
		requests[id] = backends[id].APIRequests()
	}
	backlog := r.backlogByShard()
	out := make([]ShardStat, 0, len(ids))
	for _, id := range ids {
		out = append(out, ShardStat{
			ID:         id,
			OnRing:     onRing[id],
			Queues:     perShard[id],
			Requests:   requests[id],
			Backlog:    backlog[id],
			RatePerSec: r.shardRate(id),
			Weight:     weights[id],
		})
	}
	return out
}

// GroupStat describes one placement group's footprint and traffic.
type GroupStat struct {
	Group string
	// Queues currently routed under the group.
	Queues int
	// Subgroups is the number of sub-arcs the group is split across
	// (1 = unsplit).
	Subgroups int
	// Pinned groups opted out of hot-group splitting (strict
	// co-location).
	Pinned bool
	// Shards the group's queues currently occupy, sorted. More than one
	// entry means the group is split (or mid-migration).
	Shards []string
	// Requests is the router-billed call count addressed to the group's
	// queues since they were created.
	Requests int64
	// Backlog is the group's live message depth (visible + in-flight),
	// including straggler copies still draining off old shards.
	Backlog int64
	// RatePerSec is the router-observed request rate to the group over
	// the trailing 10s window (0 without a metrics registry).
	RatePerSec float64
}

// GroupStats aggregates per-group placement, billing, depth, and load —
// the axis the split policy (and a capacity-planning operator) cares
// about: WHICH tenant is hot, not just which shard it happens to sit
// on. Sorted by group.
func (r *Router) GroupStats() []GroupStat {
	r.mu.RLock()
	routes := make(map[string]*route, len(r.routes))
	for n, rt := range r.routes {
		routes[n] = rt
	}
	splits := make(map[string]int, len(r.splits))
	for g, k := range r.splits {
		splits[g] = k
	}
	pinned := make(map[string]bool, len(r.pinned))
	for g := range r.pinned {
		pinned[g] = true
	}
	r.mu.RUnlock()
	agg := make(map[string]*GroupStat)
	shardsOf := make(map[string]map[string]bool)
	for name, rt := range routes {
		rt.mu.Lock()
		owner, group, dead := rt.shard, rt.group, rt.dead
		rt.mu.Unlock()
		if dead {
			continue
		}
		g := effectiveGroup(group, name)
		st := agg[g]
		if st == nil {
			k := splits[g]
			if k < 1 {
				k = 1
			}
			st = &GroupStat{Group: g, Subgroups: k, Pinned: pinned[g], RatePerSec: r.groupRate(g)}
			agg[g] = st
			shardsOf[g] = make(map[string]bool)
		}
		st.Queues++
		shardsOf[g][owner] = true
		st.Requests += r.billing.For(name)
	}
	_, byGroup := r.depthSweep()
	out := make([]GroupStat, 0, len(agg))
	for g, st := range agg {
		st.Backlog = byGroup[g]
		for id := range shardsOf[g] {
			st.Shards = append(st.Shards, id)
		}
		sort.Strings(st.Shards)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// SetShardWeight rescales a shard's ring arc (1 = a fair share of the
// key space; clamped to [1/16, 16]). Only the ring re-keys — no data
// moves until the next Rebalance, so a policy can adjust several
// weights and pay a single migration sweep. Reports whether the
// shard's point count actually changed (false means the nudge rounded
// to the same arc and Rebalance has nothing new to do).
func (r *Router) SetShardWeight(id string, w float64) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ring.ids[id] {
		return false, ErrNoSuchShard
	}
	return r.ring.setWeight(id, w), nil
}

// Splits snapshots the sub-arc count of every currently-split group.
func (r *Router) Splits() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.splits))
	for g, k := range r.splits {
		out[g] = k
	}
	return out
}

// backlogByShard attributes every routed queue's live depth to the
// shards actually holding its messages: the owner's count to the owner,
// and each draining old shard's own leftover count to that shard. The
// current owner is excluded from a route's draining set — the same
// exclusion drainingBackends applies — so a queue that migrated back
// onto a still-watched shard is never counted twice. Routes are read
// without waiting out a freeze (an admin snapshot must not block on a
// migration), so a queue mid-drain may briefly show its messages split
// across both shards — which is also where they physically are.
//
// Depth is read through the unbilled queue.DepthReporter diagnostic
// when the backend offers it (a local *queue.Service); remote shards
// fall back to a billed ApproximateCount probe per queue.
func (r *Router) backlogByShard() map[string]int64 {
	byShard, _ := r.depthSweep()
	return byShard
}

// depthSweep probes every routed queue's depth once and attributes it
// along both axes: to the shards physically holding the messages
// (owner + draining old shards, see backlogByShard) and to the queue's
// effective placement group (owner and straggler copies both — the
// group's messages wherever they sit, which is what the split policy
// sizes against).
func (r *Router) depthSweep() (byShard, byGroup map[string]int64) {
	r.mu.RLock()
	routes := make(map[string]*route, len(r.routes))
	for n, rt := range r.routes {
		routes[n] = rt
	}
	backends := make(map[string]queue.API, len(r.shards))
	for id, b := range r.shards {
		backends[id] = b
	}
	r.mu.RUnlock()
	byShard = make(map[string]int64, len(backends))
	byGroup = make(map[string]int64)
	for id := range backends {
		byShard[id] = 0
	}
	for name, rt := range routes {
		rt.mu.Lock()
		owner := rt.shard
		group := rt.group
		dead := rt.dead
		drains := make([]string, 0, len(rt.draining))
		for id := range rt.draining {
			if id != owner {
				drains = append(drains, id)
			}
		}
		rt.mu.Unlock()
		if dead {
			continue
		}
		g := effectiveGroup(group, name)
		if _, ok := byGroup[g]; !ok {
			byGroup[g] = 0
		}
		if v, inf, ok := queueDepth(backends[owner], name); ok {
			byShard[owner] += int64(v) + int64(inf)
			byGroup[g] += int64(v) + int64(inf)
		}
		for _, id := range drains {
			if v, inf, ok := queueDepth(backends[id], name); ok {
				byShard[id] += int64(v) + int64(inf)
				byGroup[g] += int64(v) + int64(inf)
			}
		}
	}
	return byShard, byGroup
}

// queueDepth reads one queue's depth on one backend, preferring the
// unbilled diagnostic surface.
func queueDepth(b queue.API, name string) (visible, inflight int, ok bool) {
	if b == nil {
		return 0, 0, false
	}
	if dr, isDR := b.(queue.DepthReporter); isDR {
		v, inf, err := dr.QueueDepth(name)
		return v, inf, err == nil
	}
	v, inf, err := b.ApproximateCount(name)
	return v, inf, err == nil
}
