package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queue"
)

// movedQueue creates queues until one owned by `from` exists, then
// returns one that moves to `to` when `to` is added. It relies on ring
// determinism: owners are computed the same way AddShard will.
func queueOwnedBy(t *testing.T, r *Router, owner string, max int) string {
	t.Helper()
	for i := 0; i < max; i++ {
		qn := fmt.Sprintf("mq%d", i)
		if err := r.CreateQueue(qn); err != nil && !errors.Is(err, queue.ErrQueueExists) {
			t.Fatal(err)
		}
		if r.Owners()[qn] == owner {
			return qn
		}
	}
	t.Fatalf("no queue landed on shard %s", owner)
	return ""
}

// TestMigrationMovesBacklog: adding a shard re-homes queues with their
// visible backlog; nothing is lost, counts match, and the old shard's
// copy of a moved queue disappears once empty.
func TestMigrationMovesBacklog(t *testing.T) {
	r, svcs := newTestRouter(t, 2)
	const queues, perQueue = 24, 15
	sent := map[string]map[string]bool{}
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("q%d", i)
		if err := r.CreateQueue(qn); err != nil {
			t.Fatal(err)
		}
		sent[qn] = map[string]bool{}
		for k := 0; k < perQueue; k++ {
			body := fmt.Sprintf("%s/task%d", qn, k)
			if _, err := r.SendMessage(qn, []byte(body)); err != nil {
				t.Fatal(err)
			}
			sent[qn][body] = true
		}
	}
	before := r.Owners()
	if err := r.AddShard("s2", queue.NewService(queue.Config{Seed: 33})); err != nil {
		t.Fatal(err)
	}
	after := r.Owners()
	moved := 0
	for qn, old := range before {
		if after[qn] != old {
			moved++
			if after[qn] != "s2" {
				t.Errorf("%s moved %s→%s, not to the new shard", qn, old, after[qn])
			}
		}
	}
	if moved == 0 {
		t.Fatal("adding a shard moved no queues — test has no power")
	}
	// Every message still receivable exactly where the router says.
	for qn, bodies := range sent {
		if v, inf, err := r.ApproximateCount(qn); err != nil || v != perQueue || inf != 0 {
			t.Fatalf("%s count after migration = %d,%d (%v)", qn, v, inf, err)
		}
		got := map[string]bool{}
		for len(got) < perQueue {
			m, ok, err := r.ReceiveMessage(qn, time.Minute)
			if err != nil || !ok {
				t.Fatalf("%s drained early: got %d/%d (%v)", qn, len(got), perQueue, err)
			}
			got[string(m.Body)] = true
			if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil {
				t.Fatalf("delete on %s: %v", qn, err)
			}
		}
		for body := range bodies {
			if !got[body] {
				t.Errorf("%s lost %q in migration", qn, body)
			}
		}
	}
	_ = svcs
}

// TestMigrationInFlightStraggler: a message leased before the migration
// stays acknowledgeable through its old receipt; an unacknowledged one
// expires on the old shard and is forwarded to the new owner.
func TestMigrationInFlightStraggler(t *testing.T) {
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	s0 := queue.NewService(queue.Config{Seed: 1, DefaultVisibility: 30 * time.Millisecond})
	if err := r.AddShard("s0", s0); err != nil {
		t.Fatal(err)
	}
	qn := queueOwnedBy(t, r, "s0", 16)

	// ack: leased pre-migration, deleted post-migration via old receipt.
	if _, err := r.SendMessage(qn, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	ackMsg, ok, err := r.ReceiveMessage(qn, time.Minute)
	if err != nil || !ok {
		t.Fatal("lease before migration failed")
	}
	// straggler: leased with a short visibility and never acknowledged.
	if _, err := r.SendMessage(qn, []byte("straggler")); err != nil {
		t.Fatal(err)
	}
	_, ok, err = r.ReceiveMessage(qn, 20*time.Millisecond)
	if err != nil || !ok {
		t.Fatal("straggler lease failed")
	}

	if err := r.AddShard("s1", queue.NewService(queue.Config{Seed: 2})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // force qn onto s1 regardless of hash luck
		if r.Owners()[qn] != "s0" {
			break
		}
		if err := r.RemoveShard("s0"); err != nil {
			t.Fatal(err)
		}
		break
	}
	if r.Owners()[qn] == "s0" {
		t.Fatal("queue did not move off s0")
	}

	// The pre-migration lease still acknowledges through the router.
	if err := r.DeleteMessage(qn, ackMsg.ReceiptHandle); err != nil {
		t.Errorf("ack via old-shard receipt after migration: %v", err)
	}

	// The straggler expires on s0 and must surface on the new owner.
	deadline := time.After(5 * time.Second)
	for {
		m, ok, err := r.ReceiveMessageWait(qn, time.Minute, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("receive while waiting for straggler: %v", err)
		}
		if ok {
			if string(m.Body) != "straggler" {
				t.Fatalf("unexpected message %q", m.Body)
			}
			if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil {
				t.Fatalf("delete forwarded straggler: %v", err)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("straggler never forwarded to the new owner")
		default:
		}
	}
	// Old shard's copy is eventually emptied and deleted by the forwarder.
	for start := time.Now(); ; {
		if _, _, err := s0.ApproximateCount(qn); errors.Is(err, queue.ErrNoSuchQueue) {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("old shard still holds the queue after forwarding finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMigrationUnderLoad: producers and consumers run through the
// router while shards are added and one is removed. Every produced body
// must be consumed at least once (no loss); duplicates are allowed by
// the at-least-once contract but deletes must land, so the namespace
// drains to empty.
func TestMigrationUnderLoad(t *testing.T) {
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	if err := r.AddShard("s0", queue.NewService(queue.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	const queues, perQueue = 8, 50
	for i := 0; i < queues; i++ {
		if err := r.CreateQueue(fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	got := make(map[string]bool)
	var wg sync.WaitGroup

	// Consumers: drain until told to stop.
	stop := make(chan struct{})
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("q%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, ok, err := r.ReceiveMessageWait(qn, 10*time.Second, 20*time.Millisecond)
				if err != nil {
					return // queue deleted at teardown
				}
				if ok {
					mu.Lock()
					got[string(m.Body)] = true
					mu.Unlock()
					if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil &&
						!errors.Is(err, queue.ErrStaleReceipt) {
						t.Errorf("delete: %v", err)
					}
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	// Producers.
	var prod sync.WaitGroup
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("q%d", i)
		prod.Add(1)
		go func() {
			defer prod.Done()
			for k := 0; k < perQueue; k++ {
				if _, err := r.SendMessage(qn, []byte(fmt.Sprintf("%s/m%d", qn, k))); err != nil {
					t.Errorf("send %s: %v", qn, err)
					return
				}
			}
		}()
	}

	// Topology churn while traffic flows.
	if err := r.AddShard("s1", queue.NewService(queue.Config{Seed: 2})); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard("s2", queue.NewService(queue.Config{Seed: 3})); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveShard("s0"); err != nil {
		t.Fatal(err)
	}
	prod.Wait()

	// Wait for the consumers to account for every body.
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == queues*perQueue {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lost messages: consumed %d/%d unique bodies", n, queues*perQueue)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Namespace drains: counts reach zero everywhere (deletes landed).
	for i := 0; i < queues; i++ {
		qn := fmt.Sprintf("q%d", i)
		ok := false
		for start := time.Now(); time.Since(start) < 5*time.Second; {
			v, inf, err := r.ApproximateCount(qn)
			if err != nil {
				t.Fatalf("count %s: %v", qn, err)
			}
			if v == 0 && inf == 0 {
				ok = true
				break
			}
			// Residual redeliveries from at-least-once forwarding: drain.
			if m, mOk, _ := r.ReceiveMessage(qn, time.Minute); mOk {
				_ = r.DeleteMessage(qn, m.ReceiptHandle)
			}
		}
		if !ok {
			v, inf, _ := r.ApproximateCount(qn)
			t.Errorf("%s never drained: %d visible, %d in flight", qn, v, inf)
		}
	}
}

// TestMigrateBackDoesNotDeleteLiveQueue: regression for the stale
// forwarder after an add-then-remove cycle. A queue moves off its shard
// and back onto it while an in-flight message keeps the first
// forwarder alive; the forwarder must not count the live copy as a
// draining remnant (double counts) nor delete it once it drains to
// empty (queue loss).
func TestMigrateBackDoesNotDeleteLiveQueue(t *testing.T) {
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	if err := r.AddShard("s0", queue.NewService(queue.Config{Seed: 1})); err != nil {
		t.Fatal(err)
	}
	qn := queueOwnedBy(t, r, "s0", 16)

	// An in-flight lease keeps s0 non-empty so the forwarder spawned by
	// the move off s0 stays alive across the move back.
	if _, err := r.SendMessage(qn, []byte("held")); err != nil {
		t.Fatal(err)
	}
	held, ok, err := r.ReceiveMessage(qn, time.Minute)
	if err != nil || !ok {
		t.Fatal("lease failed")
	}

	if err := r.AddShard("s1", queue.NewService(queue.Config{Seed: 2})); err != nil {
		t.Fatal(err)
	}
	if r.Owners()[qn] == "s0" {
		t.Skip("queue did not move off s0 for this name set")
	}
	if err := r.RemoveShard("s1"); err != nil {
		t.Fatal(err)
	}
	if got := r.Owners()[qn]; got != "s0" {
		t.Fatalf("queue did not move back to s0 (owner %s)", got)
	}

	// No double counting: exactly one in-flight message.
	if v, inf, err := r.ApproximateCount(qn); err != nil || v != 0 || inf != 1 {
		t.Fatalf("count after migrate-back = %d,%d (%v), want 0,1", v, inf, err)
	}

	// Ack, let the stale forwarder observe an empty live queue for a
	// while, and prove it neither deleted nor disturbed it.
	if err := r.DeleteMessage(qn, held.ReceiptHandle); err != nil {
		t.Fatalf("ack across migrate-back: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := r.SendMessage(qn, []byte("alive")); err != nil {
		t.Fatalf("queue was deleted by a stale forwarder: %v", err)
	}
	m, ok, err := r.ReceiveMessage(qn, time.Minute)
	if err != nil || !ok || string(m.Body) != "alive" {
		t.Fatalf("live queue broken after migrate-back: ok=%v err=%v", ok, err)
	}
	if err := r.DeleteMessage(qn, m.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteQueueDuringRebalance: deleting a queue while a shard add
// migrates it must not leave a ghost copy of its messages on any
// backend — a migration that loses the race streams nothing, one that
// wins is followed by a delete on the new owner.
func TestDeleteQueueDuringRebalance(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		r := NewRouter(Config{ForwardInterval: time.Millisecond})
		s0 := queue.NewService(queue.Config{Seed: 1})
		if err := r.AddShard("s0", s0); err != nil {
			t.Fatal(err)
		}
		const queues = 8
		for i := 0; i < queues; i++ {
			qn := fmt.Sprintf("q%d", i)
			if err := r.CreateQueue(qn); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 5; k++ {
				if _, err := r.SendMessage(qn, []byte("m")); err != nil {
					t.Fatal(err)
				}
			}
		}
		s1 := queue.NewService(queue.Config{Seed: 2})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := r.AddShard("s1", s1); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < queues; i++ {
				if err := r.DeleteQueue(fmt.Sprintf("q%d", i)); err != nil &&
					!errors.Is(err, queue.ErrNoSuchQueue) {
					t.Errorf("delete q%d: %v", i, err)
				}
			}
		}()
		wg.Wait()
		r.Close() // forwarders finish before the backend check
		for i := 0; i < queues; i++ {
			qn := fmt.Sprintf("q%d", i)
			for name, svc := range map[string]*queue.Service{"s0": s0, "s1": s1} {
				v, inf, err := svc.ApproximateCount(qn)
				if err == nil && (v > 0 || inf > 0) {
					t.Fatalf("iter %d: ghost queue %s on %s with %d/%d messages", iter, qn, name, v, inf)
				}
			}
		}
	}
}

// faultyBackend wraps a queue.API and fails receives after a fuse of
// successful calls — a transient remote-shard failure.
type faultyBackend struct {
	queue.API
	mu   sync.Mutex
	fuse int // receives remaining before failures start
	errs int // failures to inject once the fuse burns
}

func (f *faultyBackend) ReceiveMessageBatch(q string, vis time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	f.mu.Lock()
	if f.fuse > 0 {
		f.fuse--
	} else if f.errs > 0 {
		f.errs--
		f.mu.Unlock()
		return nil, errors.New("injected: connection reset")
	}
	f.mu.Unlock()
	return f.API.ReceiveMessageBatch(q, vis, max, wait)
}

// TestRebalanceRetriesFailedMigration: a migration that dies mid-drain
// leaves the queue usable on its old shard and the already-streamed
// messages recoverable; Rebalance converges the namespace once the
// fault clears, with nothing lost.
func TestRebalanceRetriesFailedMigration(t *testing.T) {
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	flaky := &faultyBackend{API: queue.NewService(queue.Config{Seed: 1})}
	if err := r.AddShard("s0", flaky); err != nil {
		t.Fatal(err)
	}
	qn := queueOwnedBy(t, r, "s0", 16)
	const n = 25 // 3 batches: fail on the second drain receive
	sent := map[string]bool{}
	for k := 0; k < n; k++ {
		body := fmt.Sprintf("m%d", k)
		if _, err := r.SendMessage(qn, []byte(body)); err != nil {
			t.Fatal(err)
		}
		sent[body] = true
	}

	// First drain receive succeeds (10 messages stream to the new
	// owner), then the shard "drops the connection".
	flaky.mu.Lock()
	flaky.fuse, flaky.errs = 1, 3
	flaky.mu.Unlock()
	err := r.AddShard("s1", queue.NewService(queue.Config{Seed: 2}))
	if err == nil {
		t.Skip("no queue moved, or drain finished within the fuse")
	}

	// The queue still works through the router mid-divergence.
	if _, err := r.SendMessage(qn, []byte("extra")); err != nil {
		t.Fatalf("queue unusable after failed migration: %v", err)
	}
	sent["extra"] = true

	// Fault cleared: Rebalance converges the route with the ring.
	flaky.mu.Lock()
	flaky.errs = 0
	flaky.mu.Unlock()
	if err := r.Rebalance(); err != nil {
		t.Fatalf("rebalance after fault cleared: %v", err)
	}
	if got := r.Owners()[qn]; got != "s1" {
		t.Fatalf("owner after rebalance = %s, want s1", got)
	}

	// Every message — streamed early, left behind, or sent mid-failure —
	// arrives exactly-once-or-more.
	got := map[string]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < len(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("lost messages after retried migration: %d/%d", len(got), len(sent))
		}
		m, ok, err := r.ReceiveMessageWait(qn, time.Minute, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got[string(m.Body)] = true
			_ = r.DeleteMessage(qn, m.ReceiptHandle)
		}
	}
}

// TestRemoveShardRefusals: topology guard rails.
func TestRemoveShardRefusals(t *testing.T) {
	r, _ := newTestRouter(t, 1)
	if err := r.RemoveShard("ghost"); !errors.Is(err, ErrNoSuchShard) {
		t.Errorf("remove unknown shard: %v", err)
	}
	if err := r.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveShard("s0"); !errors.Is(err, ErrNoShards) {
		t.Errorf("removing last shard with queues: %v", err)
	}
	if err := r.AddShard("s0", queue.NewService(queue.Config{})); !errors.Is(err, ErrShardExists) {
		t.Errorf("re-adding live shard id: %v", err)
	}
	if err := r.AddShard("bad~id", queue.NewService(queue.Config{})); !errors.Is(err, ErrBadShardID) {
		t.Errorf("bad shard id: %v", err)
	}
}

// parkedPoll wraps a shard. Its first long poll parks until the test
// releases it and then answers ErrNoSuchQueue, as a shard answers a
// poll whose queue migrated off it mid-wait.
type parkedPoll struct {
	queue.API
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkedPoll) ReceiveMessageBatch(q string, vis time.Duration, max int, wait time.Duration) ([]queue.Message, error) {
	if wait > 0 && p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
		return nil, queue.ErrNoSuchQueue
	}
	return p.API.ReceiveMessageBatch(q, vis, max, wait)
}

// groupOwnedBy returns a placement group the ring assigns to shard.
func groupOwnedBy(t *testing.T, r *Router, shard string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		g := fmt.Sprintf("g%d", i)
		r.mu.RLock()
		owner, _ := r.ring.owner(g)
		r.mu.RUnlock()
		if owner == shard {
			return g
		}
	}
	t.Fatalf("no group lands on shard %s", shard)
	return ""
}

// TestPollSurvivesMigrationAwayAndBack: a long poll dispatched to shard
// a is answered ErrNoSuchQueue after its queue moved a→b→a. The owner
// is a again, but the queue did move under the call, so the router
// must retry instead of reporting a live queue as missing.
func TestPollSurvivesMigrationAwayAndBack(t *testing.T) {
	r := NewRouter(Config{ForwardInterval: time.Millisecond})
	defer r.Close()
	a := &parkedPoll{API: queue.NewService(queue.Config{Seed: 1}), parked: make(chan struct{}), release: make(chan struct{})}
	if err := r.AddShard("a", a); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard("b", queue.NewService(queue.Config{Seed: 2})); err != nil {
		t.Fatal(err)
	}
	onA, onB := groupOwnedBy(t, r, "a"), groupOwnedBy(t, r, "b")
	const qn = "hop"
	if err := r.CreateQueue(qn); err != nil {
		t.Fatal(err)
	}
	if err := r.Regroup(qn, onA); err != nil {
		t.Fatal(err)
	}

	a.armed.Store(true)
	type result struct {
		msgs []queue.Message
		err  error
	}
	done := make(chan result, 1)
	go func() {
		msgs, err := r.ReceiveMessageBatch(qn, time.Minute, 1, 5*time.Second)
		done <- result{msgs, err}
	}()
	<-a.parked
	for _, g := range []string{onB, onA} {
		if err := r.Regroup(qn, g); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Owners()[qn]; got != "a" {
		t.Fatalf("queue owned by %s after moving back, want a", got)
	}
	if _, err := r.SendMessage(qn, []byte("after the round trip")); err != nil {
		t.Fatal(err)
	}
	close(a.release)
	res := <-done
	if res.err != nil {
		t.Fatalf("poll across a→b→a: %v", res.err)
	}
	if len(res.msgs) != 1 || string(res.msgs[0].Body) != "after the round trip" {
		t.Fatalf("poll returned %d messages, want the one sent after the moves", len(res.msgs))
	}
}
