// Durability: opt-in per-shard journaling over internal/journal.
//
// With Config.Durability set, every mutation a Service accepts —
// create/delete queue, send, transfer, receive, delete, visibility
// change, purge — is journaled as one JSON record (one blob append per
// billed call, batches included) BEFORE the in-memory commit, so an
// operation acknowledged to a caller is an operation a restarted or
// replicated service will reproduce. Recovery is a fold: Recover loads
// the journal's snapshot epoch plus the records appended since and
// rebuilds exact queue state — depths, delivery counts, live receipt
// handles, in-flight leases — mirroring Broker.Recover. A Follower runs
// the same fold continuously against a primary's journal, which is what
// shard failover promotes.
//
// What is NOT journaled: lease expiry (derived from visibleAt and the
// clock at fold time) and long-poll bookkeeping. Delivery-order
// randomness restarts at the configured seed after recovery, so
// post-recovery shuffle order may differ from an uncrashed run — the
// queue contract never promised ordering.
//
// Costs: the journal append runs under the per-queue lock, so durable
// throughput is bounded by record encoding plus the blob store's append
// path. Records are encoded by hand into pooled buffers (durenc.go),
// byte for byte what json.Marshal would write, so no reflection runs
// under the lock; the `queuedurable` paperbench experiment measures
// what remains. Snapshots (every SnapshotEvery records) briefly quiesce
// all journaled operations via an RWMutex writer acquisition.
package queue

import (
	"container/heap"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/journal"
)

// Durability configures the journal behind a durable Service. All
// fields except SnapshotEvery are required.
type Durability struct {
	// Store is the blob store holding the journal (the same store the
	// broker journals to, typically).
	Store blob.API
	// Bucket and Key name the journal object; each shard needs its own
	// Key. The bucket is created idempotently by Recover.
	Bucket string
	Key    string
	// SnapshotEvery bounds recovery replay: after this many journaled
	// records the full queue state is snapshotted and the journal
	// truncated (journal.Log.Snapshot). Default 4096; negative disables
	// compaction.
	SnapshotEvery int
}

// ErrNotRecovered rejects operations on a durable service whose
// Recover was never called: appending to a journal that may already
// hold a previous incarnation's records would corrupt it.
var ErrNotRecovered = errors.New("queue: durable service used before Recover")

// ErrHalted is returned by every operation after Halt: the service is
// simulating a killed process.
var ErrHalted = errors.New("queue: service halted")

// Journal record operations.
const (
	opGenesis     = "genesis"
	opCreateQueue = "create"
	opDeleteQueue = "delq"
	opSend        = "send"
	opReceive     = "recv"
	opDelete      = "del"
	opVisibility  = "vis"
	opPurge       = "purge"
)

// durRecord is one journal record — one mutating API call, batches
// included. Unused fields are omitted per op.
type durRecord struct {
	Op string `json:"op"`
	Q  string `json:"q,omitempty"`
	// T is the service clock at the operation, the fold's time base for
	// lease placement (opReceive, opVisibility).
	T time.Time `json:"t,omitempty"`

	// opSend: assigned message IDs, bodies, prior delivery counts
	// (transfers; nil for ordinary sends), and the queue's nextID after
	// the batch.
	IDs    []string `json:"ids,omitempty"`
	Bodies [][]byte `json:"bodies,omitempty"`
	Recvs  []int    `json:"recvs,omitempty"`
	NextID int      `json:"next,omitempty"`

	// opReceive: per delivery — target message ID (in IDs), the new
	// receipt handle, the lease expiry, and whether this was a
	// duplicate delivery (message stays visible).
	Receipts []string    `json:"receipts,omitempty"`
	Vis      []time.Time `json:"vis,omitempty"`
	Dup      []bool      `json:"dup,omitempty"`
}

// durableState carries a Service's journaling state.
type durableState struct {
	log       journal.Log
	snapEvery int
	// mu serializes journal appends (readers) against snapshot capture
	// + truncation (the writer). Lock order: dur.mu strictly before
	// s.mu / q.mu.
	mu sync.RWMutex
	// appends counts records since the last snapshot; guarded by mu
	// (writers under RLock use the atomic-free path below guarded by
	// countMu, since RLock holders run concurrently).
	countMu sync.Mutex
	appends int
	// ready is set by Recover; appends before it error.
	ready bool
}

func newDurableState(d *Durability) *durableState {
	every := d.SnapshotEvery
	if every == 0 {
		every = 4096
	}
	return &durableState{
		log:       journal.Log{Store: d.Store, Bucket: d.Bucket, Key: d.Key},
		snapEvery: every,
	}
}

// lock takes the append-side lock and checks service liveness; every
// journaled operation brackets its critical section with lock/unlock.
func (d *durableState) lock() error {
	d.mu.RLock()
	if !d.ready {
		d.mu.RUnlock()
		return ErrNotRecovered
	}
	return nil
}

func (d *durableState) unlock() { d.mu.RUnlock() }

// append journals one record. Caller holds d.mu.RLock (via lock) and
// whatever state lock covers the mutation the record describes; the
// commit must only happen if append returns nil.
func (d *durableState) append(rec *durRecord) error {
	bp, err := encodeDurRecord(rec)
	if err != nil {
		return fmt.Errorf("queue: encoding journal record: %w", err)
	}
	err = d.log.Append(*bp)
	putRecordBuf(bp)
	if err != nil {
		return err
	}
	d.countMu.Lock()
	d.appends++
	d.countMu.Unlock()
	return nil
}

// due reports whether a snapshot is due. Checked after unlock so the
// snapshot (an exclusive acquisition) is never attempted under RLock.
func (d *durableState) due() bool {
	if d.snapEvery <= 0 {
		return false
	}
	d.countMu.Lock()
	defer d.countMu.Unlock()
	return d.appends >= d.snapEvery
}

// --- Write-side hooks -------------------------------------------------

// durAppend is the no-op-when-ephemeral bracket used by Service ops:
// it runs fn (which mutates state and must journal through d.append)
// between lock and unlock, then triggers a snapshot if one came due.
// With no Durability configured it just runs fn with a nil state.
func (s *Service) durAppend(fn func(d *durableState) error) error {
	if s.dur == nil {
		return fn(nil)
	}
	if err := s.dur.lock(); err != nil {
		return err
	}
	err := fn(s.dur)
	s.dur.unlock()
	if err == nil && s.dur.due() {
		s.snapshot()
	}
	return err
}

// snapshot captures the whole service state and truncates the journal
// to it. Exclusive: waits out in-flight journaled operations, blocks
// new ones for the capture duration. Best-effort — a failed snapshot
// leaves a longer, complete journal.
func (s *Service) snapshot() {
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	s.dur.countMu.Lock()
	pending := s.dur.appends
	s.dur.countMu.Unlock()
	if pending < s.dur.snapEvery {
		return // another caller snapshotted first
	}
	state, err := json.Marshal(s.captureState())
	if err != nil {
		return
	}
	if err := s.dur.log.Snapshot(state); err != nil {
		return
	}
	s.dur.countMu.Lock()
	s.dur.appends = 0
	s.dur.countMu.Unlock()
}

// --- Snapshot format --------------------------------------------------

type durSnapshot struct {
	Queues []durQueue `json:"queues"`
}

type durQueue struct {
	Name   string `json:"name"`
	NextID int    `json:"next_id"`
	// Visible is in delivery order, front first; Inflight is in heap
	// order (re-heapified on install).
	Visible  []durMsg `json:"visible,omitempty"`
	Inflight []durMsg `json:"inflight,omitempty"`
}

type durMsg struct {
	ID       string    `json:"id"`
	Body     []byte    `json:"body"`
	Receives int       `json:"receives,omitempty"`
	Receipt  string    `json:"receipt,omitempty"`
	VisAt    time.Time `json:"vis_at,omitempty"`
}

func encodeMsg(m *message) durMsg {
	return durMsg{ID: m.id, Body: m.body, Receives: m.receives, Receipt: m.receipt, VisAt: m.visibleAt}
}

// captureState renders the full service state. Caller holds dur.mu
// exclusively, so no journaled mutation is concurrent; per-queue locks
// are still taken against non-journaled readers.
func (s *Service) captureState() *durSnapshot {
	s.mu.RLock()
	names := make([]string, 0, len(s.queues))
	for n := range s.queues {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	snap := &durSnapshot{Queues: make([]durQueue, 0, len(names))}
	for _, name := range names {
		q, err := s.getQueue(name)
		if err != nil {
			continue
		}
		q.mu.Lock()
		dq := durQueue{Name: name, NextID: q.nextID}
		for e := q.visible.Front(); e != nil; e = e.Next() {
			dq.Visible = append(dq.Visible, encodeMsg(e.Value.(*message)))
		}
		for _, m := range q.inflight {
			dq.Inflight = append(dq.Inflight, encodeMsg(m))
		}
		q.mu.Unlock()
		snap.Queues = append(snap.Queues, dq)
	}
	return snap
}

// --- Recovery ---------------------------------------------------------

// Recover claims the configured journal and rebuilds this service's
// state from it: the current snapshot epoch plus a fold over every
// record appended since. It must be called (once) before the service
// takes traffic; a fresh deployment creates the journal here, CAS-
// guarded so two services configured with one key cannot both own it.
// Implements the Recoverer capability.
func (s *Service) Recover() error {
	if s.dur == nil {
		return errors.New("queue: Recover requires Config.Durability")
	}
	d := s.dur
	if d.log.Store == nil || d.log.Bucket == "" || d.log.Key == "" {
		return errors.New("queue: Durability needs Store, Bucket, and Key")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ready {
		return errors.New("queue: Recover called twice")
	}
	if err := d.log.Store.CreateBucket(d.log.Bucket); err != nil && !errors.Is(err, blob.ErrBucketExists) {
		return fmt.Errorf("queue: journal bucket: %w", err)
	}
	v, err := d.log.Load()
	if errors.Is(err, blob.ErrNoSuchKey) {
		if err := d.log.CreateJSON(&durRecord{Op: opGenesis}); err != nil {
			return err
		}
		d.ready = true
		return nil
	}
	if err != nil {
		return err
	}
	if err := s.installView(v); err != nil {
		return err
	}
	d.countMu.Lock()
	d.appends = len(v.Entries)
	d.countMu.Unlock()
	d.ready = true
	return nil
}

// installView resets the service to a journal view: snapshot state,
// then a replay of the tail records. Caller guarantees exclusive use.
func (s *Service) installView(v *journal.View) error {
	s.mu.Lock()
	s.queues = make(map[string]*queueState)
	s.mu.Unlock()
	if v.Snapshot != nil {
		var snap durSnapshot
		if err := json.Unmarshal(v.Snapshot, &snap); err != nil {
			return fmt.Errorf("queue: decoding journal snapshot: %w", err)
		}
		if err := s.installSnapshot(&snap); err != nil {
			return err
		}
	}
	for i, line := range v.Entries {
		var rec durRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("queue: journal record %d: %w", i+1, err)
		}
		if err := s.foldRecord(&rec); err != nil {
			return fmt.Errorf("queue: journal record %d: %w", i+1, err)
		}
	}
	return nil
}

// newQueueStateLocked builds an empty queue exactly as CreateQueue
// does. Caller holds s.mu.
func (s *Service) newQueueStateLocked(name string) *queueState {
	return &queueState{
		name:       name,
		poolBodies: s.cfg.DuplicateProb == 0,
		rng:        rand.New(rand.NewSource(queueSeed(s.cfg.Seed, name))),
		visible:    list.New(),
		byReceipt:  make(map[string]*message),
		byID:       make(map[string]*message),
	}
}

func (s *Service) installSnapshot(snap *durSnapshot) error {
	for _, dq := range snap.Queues {
		s.mu.Lock()
		if _, ok := s.queues[dq.Name]; ok {
			s.mu.Unlock()
			return fmt.Errorf("queue: snapshot repeats queue %q", dq.Name)
		}
		q := s.newQueueStateLocked(dq.Name)
		s.queues[dq.Name] = q
		s.mu.Unlock()
		q.mu.Lock()
		q.nextID = dq.NextID
		for i := range dq.Visible {
			installMsgLocked(q, &dq.Visible[i], false)
		}
		for i := range dq.Inflight {
			installMsgLocked(q, &dq.Inflight[i], true)
		}
		heap.Init(&q.inflight)
		q.mu.Unlock()
	}
	return nil
}

// installMsgLocked materializes one snapshot message. Caller holds q.mu
// and re-heapifies inflight afterwards.
func installMsgLocked(q *queueState, dm *durMsg, inflight bool) {
	m := &message{
		id:        dm.ID,
		body:      append([]byte(nil), dm.Body...),
		receives:  dm.Receives,
		receipt:   dm.Receipt,
		visibleAt: dm.VisAt,
		heapIdx:   -1,
	}
	if inflight {
		m.heapIdx = len(q.inflight)
		q.inflight = append(q.inflight, m)
	} else {
		m.elem = q.visible.PushBack(m)
	}
	if m.receipt != "" {
		q.byReceipt[m.receipt] = m
	}
	q.byID[m.id] = m
}

// foldRecord applies one journal record — the single transition
// function recovery and followers share. Folding is strict: a record
// that does not match the folded state (unknown queue, unknown message)
// reports corruption instead of guessing.
func (s *Service) foldRecord(rec *durRecord) error {
	switch rec.Op {
	case opGenesis:
		return nil
	case opCreateQueue:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.queues[rec.Q]; ok {
			return fmt.Errorf("create of existing queue %q", rec.Q)
		}
		s.queues[rec.Q] = s.newQueueStateLocked(rec.Q)
		return nil
	case opDeleteQueue:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.queues[rec.Q]; !ok {
			return fmt.Errorf("delete of unknown queue %q", rec.Q)
		}
		delete(s.queues, rec.Q)
		return nil
	}

	q, err := s.getQueue(rec.Q)
	if err != nil {
		return fmt.Errorf("%s on unknown queue %q", rec.Op, rec.Q)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	switch rec.Op {
	case opSend:
		if len(rec.IDs) != len(rec.Bodies) || (rec.Recvs != nil && len(rec.Recvs) != len(rec.IDs)) {
			return fmt.Errorf("send record shape: %d ids, %d bodies, %d recvs", len(rec.IDs), len(rec.Bodies), len(rec.Recvs))
		}
		for i, id := range rec.IDs {
			if _, ok := q.byID[id]; ok {
				return fmt.Errorf("send of duplicate message %q", id)
			}
			m := &message{id: id, body: append([]byte(nil), rec.Bodies[i]...), heapIdx: -1}
			if rec.Recvs != nil {
				m.receives = rec.Recvs[i]
			}
			m.elem = q.visible.PushBack(m)
			q.byID[id] = m
		}
		q.nextID = rec.NextID
		return nil
	case opReceive:
		n := len(rec.IDs)
		if len(rec.Receipts) != n || len(rec.Vis) != n || len(rec.Dup) != n {
			return fmt.Errorf("receive record shape: %d ids, %d receipts, %d vis, %d dup",
				n, len(rec.Receipts), len(rec.Vis), len(rec.Dup))
		}
		for i, id := range rec.IDs {
			m, ok := q.byID[id]
			if !ok {
				return fmt.Errorf("receive of unknown message %q", id)
			}
			m.receives++
			if m.receipt != "" {
				delete(q.byReceipt, m.receipt)
			}
			m.receipt = rec.Receipts[i]
			q.byReceipt[m.receipt] = m
			if rec.Dup[i] {
				continue
			}
			// The message was visible at append time even if this fold
			// still holds it in-flight (an expiry, never journaled,
			// released it in between): re-place it from wherever it is.
			if m.elem != nil {
				q.visible.Remove(m.elem)
				m.elem = nil
			} else if m.heapIdx >= 0 {
				heap.Remove(&q.inflight, m.heapIdx)
			}
			m.visibleAt = rec.Vis[i]
			heap.Push(&q.inflight, m)
		}
		return nil
	case opDelete:
		for _, id := range rec.IDs {
			m, ok := q.byID[id]
			if !ok {
				return fmt.Errorf("delete of unknown message %q", id)
			}
			q.removeLocked(m)
		}
		return nil
	case opVisibility:
		for i, id := range rec.IDs {
			m, ok := q.byID[id]
			if !ok {
				return fmt.Errorf("visibility change on unknown message %q", id)
			}
			q.placeLocked(m, rec.Vis[i], rec.T)
		}
		return nil
	case opPurge:
		q.purgeLocked()
		return nil
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// --- Follower ---------------------------------------------------------

// A Follower replays a primary's journal into a standby Service with
// bounded lag: within one snapshot epoch it folds only the journal
// tail it has not yet consumed (a cheap Head poll plus a range read);
// when the primary compacts, it rebuilds from the new snapshot — whose
// replay cost the primary's SnapshotEvery bounds. Promote turns the
// standby into the serving primary: it folds the final tail, attaches
// the journal for writing, and returns the Service — receipts, delivery
// counts, and leases all live. The caller must know the old primary is
// dead first (failover does, via health checks): two writers on one
// journal is the one corruption this package cannot detect for you.
type Follower struct {
	svc *Service

	mu  sync.Mutex
	seq int64
	off int64
	// records counts journal records folded in the current epoch; it
	// seeds the promoted service's compaction counter.
	records  int
	promoted bool
	stop     chan struct{}
	done     chan struct{}
}

// NewFollower builds a standby service over the primary's journal
// config. The standby must not be handed traffic before Promote.
func NewFollower(cfg Config) (*Follower, error) {
	if cfg.Durability == nil || cfg.Durability.Store == nil || cfg.Durability.Bucket == "" || cfg.Durability.Key == "" {
		return nil, errors.New("queue: NewFollower needs Config.Durability with Store, Bucket, and Key")
	}
	return &Follower{svc: NewService(cfg)}, nil
}

// CatchUp folds everything the primary has journaled since the last
// call, returning the number of records applied.
func (f *Follower) CatchUp() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return 0, errors.New("queue: follower already promoted")
	}
	return f.catchUpLocked()
}

func (f *Follower) catchUpLocked() (int, error) {
	d := f.svc.dur
	seq, size, err := d.log.Head()
	if errors.Is(err, blob.ErrNoSuchKey) || errors.Is(err, blob.ErrNoSuchBucket) {
		return 0, nil // primary has not created the journal yet
	}
	if err != nil {
		return 0, err
	}
	if seq != f.seq || size < f.off {
		// New snapshot epoch (or a rewritten log): rebuild wholesale.
		// The primary's compaction cadence bounds this fold.
		return f.rebuildLocked()
	}
	if size == f.off {
		return 0, nil
	}
	tail, newSize, err := d.log.Tail(f.off)
	if err != nil {
		return 0, err
	}
	// The Head read above and the Tail range read are two requests, so a
	// primary compaction can slip between them: the log is truncated to
	// a new epoch, then appends regrow it past f.off — and the tail just
	// read starts mid-record in the NEW epoch. Epoch seqs strictly
	// increase, so re-reading the header detects it; rebuild instead of
	// folding misaligned bytes.
	seq2, _, err := d.log.Head()
	if err != nil {
		return 0, err
	}
	if seq2 != seq {
		return f.rebuildLocked()
	}
	entries, err := journal.SplitEntries(tail)
	if err != nil {
		return 0, err
	}
	for _, line := range entries {
		var rec durRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, err
		}
		if err := f.svc.foldRecord(&rec); err != nil {
			return 0, err
		}
	}
	f.off = newSize
	f.records += len(entries)
	return len(entries), nil
}

// rebuildLocked replaces the standby's state with a full load of the
// journal's current view. Caller holds f.mu.
func (f *Follower) rebuildLocked() (int, error) {
	v, err := f.svc.dur.log.Load()
	if err != nil {
		return 0, err
	}
	if err := f.svc.installView(v); err != nil {
		return 0, err
	}
	f.seq, f.off = v.Seq, v.Size
	f.records = len(v.Entries)
	return len(v.Entries), nil
}

// Start polls CatchUp every interval until Close or Promote. Errors are
// dropped (the next poll retries); use CatchUp directly to observe them.
func (f *Follower) Start(interval time.Duration) {
	f.mu.Lock()
	if f.stop != nil || f.promoted {
		f.mu.Unlock()
		return
	}
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	stop, done := f.stop, f.done
	f.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = f.CatchUp()
			}
		}
	}()
}

// Close stops the polling loop (if Start was used).
func (f *Follower) Close() {
	f.mu.Lock()
	stop, done := f.stop, f.done
	f.stop, f.done = nil, nil
	f.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Lag reports how many journal bytes the primary is ahead of this
// follower right now (one cheap Head read).
func (f *Follower) Lag() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq, size, err := f.svc.dur.log.Head()
	if err != nil {
		return 0, err
	}
	if seq != f.seq {
		return size, nil // epoch behind: everything since the snapshot
	}
	return size - f.off, nil
}

// Promote finishes replication and returns the standby as the serving
// service: one final fold, then the journal is attached for writing so
// the promoted service keeps the durability chain going under the same
// key. Only call once the old primary is confirmed dead.
func (f *Follower) Promote() (*Service, error) {
	f.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, errors.New("queue: follower promoted twice")
	}
	if _, err := f.catchUpLocked(); err != nil {
		return nil, err
	}
	f.promoted = true
	d := f.svc.dur
	d.mu.Lock()
	d.countMu.Lock()
	// Seed the compaction counter with the journal tail already behind
	// us so the promoted service snapshots on the primary's cadence.
	d.appends = f.records
	d.countMu.Unlock()
	d.ready = true
	d.mu.Unlock()
	return f.svc, nil
}

// PromoteAPI is Promote with an interface return — the exact signature
// the shard router's standby registration wants (SetStandby), kept
// separate so a nil *Service error case never leaks a typed nil into
// the interface.
func (f *Follower) PromoteAPI() (API, error) {
	s, err := f.Promote()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Service returns the standby service for inspection (depths, etc.).
// It must not be handed traffic before Promote.
func (f *Follower) Service() *Service { return f.svc }
