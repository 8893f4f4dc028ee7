package queue

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
)

func durConfig(store blob.API, clk Clock, key string) Config {
	return Config{
		Clock: clk,
		Seed:  42,
		Durability: &Durability{
			Store:  store,
			Bucket: "queue-journal",
			Key:    key,
		},
	}
}

// A durable service recovered from its journal reproduces exact state:
// depths, in-flight leases, live receipt handles, delivery counts, and
// the message-ID counter.
func TestDurableRecoverExactState(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	s := NewService(durConfig(store, clk, "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := s.SendMessage("q", []byte(fmt.Sprintf("task-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m1, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}
	m2, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}
	if err := s.DeleteMessage("q", m2.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	if err := s.ChangeVisibility("q", m1.ReceiptHandle, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Halt() // SIGKILL: in-memory state is now unreachable

	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 4 || inf != 1 {
		t.Fatalf("recovered depth = %d/%d (err %v), want 4 visible / 1 in flight", vis, inf, err)
	}
	// The receipt issued by the dead service is live on the recovered one.
	if err := r.DeleteMessage("q", m1.ReceiptHandle); err != nil {
		t.Errorf("receipt did not survive recovery: %v", err)
	}
	// The ID counter continues: no collision with pre-crash messages.
	newID, err := r.SendMessage("q", []byte("post-crash"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == newID {
			t.Fatalf("recovered service reissued message ID %s", newID)
		}
	}
	// Never-delivered survivors report their first delivery.
	msgs, err := r.ReceiveMessageBatch("q", time.Minute, MaxBatch, 0)
	if err != nil || len(msgs) != 5 {
		t.Fatalf("drained %d messages (err %v), want 5", len(msgs), err)
	}
	for _, m := range msgs {
		if m.Receives != 1 {
			t.Errorf("message %s recovered with %d deliveries, want 1", m.ID, m.Receives)
		}
	}
}

// Delivery counts survive recovery: a message received before the
// crash reports receives+1 when redelivered after it.
func TestDurableRecoverPreservesDeliveryCounts(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	s := NewService(durConfig(store, clk, "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("q", []byte("poison")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok || m.Receives != 1 {
		t.Fatalf("first delivery: %v ok=%v receives=%d", err, ok, m.Receives)
	}
	s.Halt()

	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute) // expire the pre-crash lease
	m, ok, err = r.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("redelivery: %v ok=%v", err, ok)
	}
	if m.Receives != 2 {
		t.Errorf("redelivery count = %d, want 2 (pre-crash delivery lost)", m.Receives)
	}
}

// Durable services reject traffic until Recover has claimed the
// journal, and reject a second Recover.
func TestDurableRequiresRecover(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	s := NewService(durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0"))
	if err := s.CreateQueue("q"); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("pre-Recover create: %v, want ErrNotRecovered", err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err == nil {
		t.Fatal("second Recover accepted")
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
}

// Snapshots bound replay: after many operations the journal holds a
// snapshot plus fewer than SnapshotEvery records, and recovery from it
// is still exact.
func TestDurableSnapshotBoundsReplay(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	cfg := durConfig(store, clk, "shard-0")
	cfg.Durability.SnapshotEvery = 8
	s := NewService(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.SendMessage("q", []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, ok, err := s.ReceiveMessage("q", time.Minute)
		if err != nil || !ok {
			t.Fatal(err)
		}
		if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.dur.log.Load()
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshot == nil {
		t.Fatal("no snapshot after 60+ journaled operations")
	}
	if len(v.Entries) >= 8 {
		t.Errorf("replay tail holds %d records, want < 8", len(v.Entries))
	}
	s.Halt()
	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 30 || inf != 0 {
		t.Fatalf("recovered depth = %d/%d (err %v), want 30/0", vis, inf, err)
	}
}

// Duplicate deliveries (DuplicateProb) journal and fold correctly: the
// message stays visible with its rotated receipt.
func TestDurableRecoverDuplicateDelivery(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	cfg := durConfig(store, clk, "shard-0")
	cfg.DuplicateProb = 1.0 // every delivery is a duplicate
	s := NewService(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("q", []byte("dup")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatal(err)
	}
	s.Halt()

	r := NewService(func() Config { c := durConfig(store, clk, "shard-0"); c.DuplicateProb = 1.0; return c }())
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 1 || inf != 0 {
		t.Fatalf("recovered depth = %d/%d (err %v), want 1/0 (duplicate stays visible)", vis, inf, err)
	}
	if err := r.DeleteMessage("q", m.ReceiptHandle); err != nil {
		t.Errorf("duplicate's receipt did not survive recovery: %v", err)
	}
}

// An empty receive poll appends nothing: only accepted mutations reach
// the journal.
func TestDurableEmptyReceiveNotJournaled(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	s := NewService(durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	_, seenBefore, err := s.dur.log.Head()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.ReceiveMessage("q", time.Minute); err != nil || ok {
		t.Fatalf("receive on empty queue: %v ok=%v", err, ok)
	}
	if err := s.DeleteMessage("q", "bogus"); !errors.Is(err, ErrStaleReceipt) {
		t.Fatalf("bogus delete: %v", err)
	}
	_, seenAfter, err := s.dur.log.Head()
	if err != nil {
		t.Fatal(err)
	}
	if seenAfter != seenBefore {
		t.Errorf("journal grew %d bytes on no-op operations", seenAfter-seenBefore)
	}
}

// A mutation racing DeleteQueue must not journal after the delq
// record: folding is strict, so a late opDelete/opVisibility/opPurge
// against the deleted queue would poison the journal and fail every
// later Recover (and follower fold). The race is simulated
// deterministically: the queue state a concurrent caller resolved
// before the delete is re-exposed after DeleteQueue completes, which
// is indistinguishable, from the operation's point of view, from
// having resolved it just before the delete landed.
func TestDurableOpsRacingDeleteQueueDoNotPoisonJournal(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	s := NewService(durConfig(store, clk, "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage("q", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("receive: %v ok=%v", err, ok)
	}
	q, err := s.getQueue("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.queues["q"] = q // the dead state a racing caller still holds
	s.mu.Unlock()
	if err := s.DeleteMessage("q", m.ReceiptHandle); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("delete racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	if _, err := s.DeleteMessageBatch("q", []string{m.ReceiptHandle}); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("batch delete racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	if err := s.ChangeVisibility("q", m.ReceiptHandle, time.Minute); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("visibility change racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	if err := s.Purge("q"); !errors.Is(err, ErrNoSuchQueue) {
		t.Errorf("purge racing queue deletion: %v, want ErrNoSuchQueue", err)
	}
	s.mu.Lock()
	delete(s.queues, "q")
	s.mu.Unlock()
	s.Halt()
	// The proof: the journal still folds. A record journaled after the
	// delq would fail Recover with "<op> on unknown queue" forever.
	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatalf("journal poisoned by mutation racing DeleteQueue: %v", err)
	}
}

// failingStore is a blob store whose journal appends fail while armed:
// a storage outage between the queue and its journal.
type failingStore struct {
	blob.API
	armed atomic.Bool
}

var errAppendFailed = errors.New("injected append failure")

func (f *failingStore) Append(bucket, key string, data []byte) (int64, error) {
	if f.armed.Load() {
		return 0, errAppendFailed
	}
	return f.API.Append(bucket, key, data)
}

// The journal is written ahead: a batch operation whose append fails
// returns the failure and commits nothing, so the journal never falls
// behind what callers were told.
func TestDurableFailedAppendCommitsNothing(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	fs := &failingStore{API: store}
	clk := NewFakeClock(time.Unix(1000, 0))
	s := NewService(durConfig(fs, clk, "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessageBatch("q", [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}); err != nil {
		t.Fatal(err)
	}
	msgs, err := s.ReceiveMessageBatch("q", time.Minute, 2, 0)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("receive: %d messages, %v", len(msgs), err)
	}
	receipts := []string{msgs[0].ReceiptHandle, msgs[1].ReceiptHandle}

	depth := func(svc *Service) [2]int {
		t.Helper()
		vis, inf, err := svc.QueueDepth("q")
		if err != nil {
			t.Fatal(err)
		}
		return [2]int{vis, inf}
	}
	want := depth(s)
	fs.armed.Store(true)
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"SendMessageBatch", func() error {
			_, err := s.SendMessageBatch("q", [][]byte{[]byte("e")})
			return err
		}},
		{"ReceiveMessageBatch", func() error {
			_, err := s.ReceiveMessageBatch("q", time.Minute, 2, 0)
			return err
		}},
		{"DeleteMessageBatch", func() error {
			_, err := s.DeleteMessageBatch("q", receipts)
			return err
		}},
	} {
		if err := op.call(); !errors.Is(err, errAppendFailed) {
			t.Errorf("%s with a failing journal: err = %v, want the append failure", op.name, err)
		}
		if got := depth(s); got != want {
			t.Errorf("after failed %s: depth %v, want %v", op.name, got, want)
		}
	}
	fs.armed.Store(false)

	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := depth(r); got != want {
		t.Errorf("recovered depth %v, live depth %v", got, want)
	}
	// The failed delete kept the receipts live.
	results, err := s.DeleteMessageBatch("q", receipts)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range results {
		if err != nil {
			t.Errorf("receipt %d after the failed delete: %v", i, err)
		}
	}
}

// Halt is SIGKILL: every operation fails with ErrHalted, including long
// polls already blocked.
func TestHaltFailsOperationsAndWakesPolls(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	s := NewService(durConfig(store, NewFakeClock(time.Unix(1000, 0)), "shard-0"))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	pollErr := make(chan error, 1)
	go func() {
		_, _, err := s.ReceiveMessageWait("q", time.Minute, 30*time.Second)
		pollErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the poll block
	if err := s.Ping(); err != nil {
		t.Fatalf("pre-halt ping: %v", err)
	}
	s.Halt()
	select {
	case err := <-pollErr:
		if !errors.Is(err, ErrHalted) {
			t.Errorf("blocked poll woke with %v, want ErrHalted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked long poll did not wake on Halt")
	}
	if _, err := s.SendMessage("q", []byte("x")); !errors.Is(err, ErrHalted) {
		t.Errorf("send after halt: %v", err)
	}
	if err := s.Ping(); !errors.Is(err, ErrHalted) {
		t.Errorf("ping after halt: %v", err)
	}
}

// Halt works on ephemeral services too (no Durability).
func TestHaltEphemeralService(t *testing.T) {
	s := NewService(Config{Clock: NewFakeClock(time.Unix(1000, 0))})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	s.Halt()
	if _, _, err := s.ReceiveMessage("q", 0); !errors.Is(err, ErrHalted) {
		t.Errorf("receive after halt: %v", err)
	}
}

// A follower replays the primary's journal with bounded lag — including
// across the primary's snapshot truncations — and Promote hands back a
// service with the primary's exact state, receipts intact, journaling
// onward under the same key.
func TestFollowerReplicatesAndPromotes(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	cfg := durConfig(store, clk, "shard-0")
	cfg.Durability.SnapshotEvery = 8 // force epoch changes under the follower
	p := NewService(cfg)
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(durConfig(store, clk, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	var held Message
	for i := 0; i < 30; i++ {
		if _, err := p.SendMessage("q", []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := f.CatchUp(); err != nil {
				t.Fatalf("catch-up at %d: %v", i, err)
			}
		}
	}
	m, ok, err := p.ReceiveMessage("q", time.Hour)
	if err != nil || !ok {
		t.Fatal(err)
	}
	held = m
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	lag, err := f.Lag()
	if err != nil || lag != 0 {
		t.Fatalf("lag after catch-up = %d (err %v), want 0", lag, err)
	}
	fv, fi, err := f.Service().QueueDepth("q")
	if err != nil || fv != 29 || fi != 1 {
		t.Fatalf("follower depth = %d/%d (err %v), want 29/1", fv, fi, err)
	}

	p.Halt() // primary dies holding one lease
	promoted, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	// The lease the dead primary issued is deletable on the promoted service.
	if err := promoted.DeleteMessage("q", held.ReceiptHandle); err != nil {
		t.Errorf("receipt did not survive promotion: %v", err)
	}
	// The promoted service journals under the same key: a cold recovery
	// sees its post-promotion writes.
	if _, err := promoted.SendMessage("q", []byte("after-failover")); err != nil {
		t.Fatal(err)
	}
	promoted.Halt()
	r := NewService(durConfig(store, clk, "shard-0"))
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	vis, inf, err := r.ApproximateCount("q")
	if err != nil || vis != 30 || inf != 0 {
		t.Fatalf("post-failover recovery depth = %d/%d (err %v), want 30/0", vis, inf, err)
	}
	if _, err := f.Promote(); err == nil {
		t.Error("second Promote accepted")
	}
}

// Follower.Start polls in the background until promoted.
func TestFollowerStartPolls(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	clk := NewFakeClock(time.Unix(1000, 0))
	p := NewService(durConfig(store, clk, "shard-0"))
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(durConfig(store, clk, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(5 * time.Millisecond)
	defer f.Close()
	if err := p.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SendMessage("q", []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if vis, _, err := f.Service().QueueDepth("q"); err == nil && vis == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCapabilitiesDiscovery: the in-process Service is a terminal hop,
// so it must not claim the trace-scoping capability. The capabilities
// it does have are compile-time assertions next to NewService.
func TestCapabilitiesDiscovery(t *testing.T) {
	var api API = NewService(Config{})
	if _, ok := api.(TraceScoper); ok {
		t.Error("Service claims TraceScoper; it is a terminal hop")
	}
}
