package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchStore abstracts the indexed Service and the legacy global-mutex
// implementation so the contention and dead-backlog benchmarks can run
// both under identical load.
type benchStore interface {
	CreateQueue(name string) error
	SendMessage(name string, body []byte) (string, error)
	ReceiveMessage(name string, vis time.Duration) (Message, bool, error)
	DeleteMessage(name, receipt string) error
	ChangeVisibility(name, receipt string, d time.Duration) error
	ApproximateCount(name string) (int, int, error)
}

// ---------------------------------------------------------------------------
// Legacy implementation: the pre-index queue core. One service-wide
// mutex, a slice scan per receive/delete, deleted entries never
// compacted. Kept here (test-only) as the benchmark baseline the
// indexed rewrite is measured against.
// ---------------------------------------------------------------------------

type legacyService struct {
	mu     sync.Mutex
	queues map[string]*legacyQueue
	window int
	clock  Clock
	seq    int
}

type legacyQueue struct {
	name     string
	messages []*legacyMessage
	nextID   int
}

type legacyMessage struct {
	id        string
	body      []byte
	visibleAt time.Time
	receives  int
	receipt   string
	deleted   bool
}

func newLegacyService() *legacyService {
	return &legacyService{queues: make(map[string]*legacyQueue), window: 4, clock: RealClock{}}
}

func (s *legacyService) CreateQueue(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queues[name] = &legacyQueue{name: name}
	return nil
}

func (s *legacyService) SendMessage(name string, body []byte) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return "", ErrNoSuchQueue
	}
	q.nextID++
	m := &legacyMessage{id: fmt.Sprintf("%s-%d", name, q.nextID), body: append([]byte(nil), body...)}
	q.messages = append(q.messages, m)
	return m.id, nil
}

func (s *legacyService) ReceiveMessage(name string, vis time.Duration) (Message, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return Message{}, false, ErrNoSuchQueue
	}
	now := s.clock.Now()
	var candidates []*legacyMessage
	for _, m := range q.messages {
		if m.deleted || m.visibleAt.After(now) {
			continue
		}
		candidates = append(candidates, m)
		if len(candidates) >= s.window {
			break
		}
	}
	if len(candidates) == 0 {
		return Message{}, false, nil
	}
	s.seq++
	m := candidates[s.seq%len(candidates)]
	m.receives++
	m.receipt = fmt.Sprintf("%s#r%d", m.id, m.receives)
	m.visibleAt = now.Add(vis)
	return Message{ID: m.id, Body: append([]byte(nil), m.body...), ReceiptHandle: m.receipt, Receives: m.receives}, true, nil
}

func (s *legacyService) DeleteMessage(name, receipt string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return ErrNoSuchQueue
	}
	for _, m := range q.messages {
		if !m.deleted && m.receipt == receipt {
			m.deleted = true
			return nil
		}
	}
	return ErrStaleReceipt
}

// seedDead bulk-loads n already-deleted messages, so benchmarks can set
// up the legacy graveyard without paying its own quadratic API cost.
func (s *legacyService) seedDead(name string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	for i := 0; i < n; i++ {
		q.nextID++
		q.messages = append(q.messages, &legacyMessage{
			id: fmt.Sprintf("%s-%d", name, q.nextID), deleted: true,
		})
	}
}

func (s *legacyService) ChangeVisibility(name, receipt string, d time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return ErrNoSuchQueue
	}
	for _, m := range q.messages {
		if !m.deleted && m.receipt == receipt {
			m.visibleAt = s.clock.Now().Add(d)
			return nil
		}
	}
	return ErrStaleReceipt
}

func (s *legacyService) ApproximateCount(name string) (int, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[name]
	if q == nil {
		return 0, 0, ErrNoSuchQueue
	}
	now := s.clock.Now()
	visible, inflight := 0, 0
	for _, m := range q.messages {
		if m.deleted {
			continue
		}
		if m.visibleAt.After(now) {
			inflight++
		} else {
			visible++
		}
	}
	return visible, inflight, nil
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

// seedDeadMessages puts n sent-received-deleted messages in a queue's
// history. The legacy store is bulk-loaded (its own API is quadratic in
// the graveyard size); the indexed store goes through the public API,
// which compacts every deletion immediately.
func seedDeadMessages(b *testing.B, s benchStore, name string, n int) {
	b.Helper()
	if ls, ok := s.(*legacyService); ok {
		ls.seedDead(name, n)
		return
	}
	for i := 0; i < n; i++ {
		if _, err := s.SendMessage(name, []byte("dead")); err != nil {
			b.Fatal(err)
		}
		m, ok, err := s.ReceiveMessage(name, time.Hour)
		if err != nil || !ok {
			b.Fatal("seeding receive failed")
		}
		if err := s.DeleteMessage(name, m.ReceiptHandle); err != nil {
			b.Fatal(err)
		}
	}
}

func newIndexed() benchStore { return NewService(Config{Seed: 1}) }

// The indexed service runs under -bench=Queue. The global-mutex
// baseline has its own benchmarks, run with -bench=GlobalMutex, so the
// default set does not spend minutes on the quadratic legacy scans.

func BenchmarkQueueThroughput(b *testing.B)         { benchThroughput(b, newIndexed()) }
func BenchmarkQueueContention(b *testing.B)         { benchContention(b, newIndexed()) }
func BenchmarkQueueReceiveDeadBacklog(b *testing.B) { benchDeadBacklog(b, newIndexed()) }
func BenchmarkQueueApproximateCount(b *testing.B)   { benchApproximateCount(b, newIndexed()) }

func BenchmarkGlobalMutexThroughput(b *testing.B) { benchThroughput(b, newLegacyService()) }
func BenchmarkGlobalMutexContention(b *testing.B) { benchContention(b, newLegacyService()) }
func BenchmarkGlobalMutexReceiveDeadBacklog(b *testing.B) {
	benchDeadBacklog(b, newLegacyService())
}
func BenchmarkGlobalMutexApproximateCount(b *testing.B) {
	benchApproximateCount(b, newLegacyService())
}

// benchThroughput measures a single queue's send → receive → delete
// cycle from one goroutine: the floor the per-queue indexes set before
// any parallelism.
func benchThroughput(b *testing.B, s benchStore) {
	s.CreateQueue("q")
	body := []byte("task payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendMessage("q", body); err != nil {
			b.Fatal(err)
		}
		m, ok, err := s.ReceiveMessage("q", time.Hour)
		if err != nil || !ok {
			b.Fatal("receive failed")
		}
		if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// benchContention is the multi-tenant shape the broker produces: 8
// queues (jobs) × 8 workers each, every worker running the full
// send/receive/delete cycle against its own queue. Per-queue
// locking lets the tenants proceed independently; the global-mutex
// baseline serializes all 64 workers.
func benchContention(b *testing.B, s benchStore) {
	const queues = 8
	const workersPerQueue = 8
	for qi := 0; qi < queues; qi++ {
		s.CreateQueue(fmt.Sprintf("q%d", qi))
	}
	body := []byte("task payload")
	workers := queues * workersPerQueue
	cycles := b.N/workers + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for qi := 0; qi < queues; qi++ {
		qn := fmt.Sprintf("q%d", qi)
		for w := 0; w < workersPerQueue; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < cycles; i++ {
					if _, err := s.SendMessage(qn, body); err != nil {
						b.Error(err)
						return
					}
					m, ok, err := s.ReceiveMessage(qn, time.Hour)
					if err != nil {
						b.Error(err)
						return
					}
					if ok {
						if err := s.DeleteMessage(qn, m.ReceiptHandle); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	b.ReportMetric(float64(workers*cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// benchDeadBacklog measures ReceiveMessage on a queue whose history
// holds 100k deleted messages and 100 live ones. The
// indexed store compacts deletions out, so its cost tracks the live
// count; the legacy scan walks the graveyard on every call.
func benchDeadBacklog(b *testing.B, s benchStore) {
	const dead = 100_000
	const live = 100
	s.CreateQueue("q")
	seedDeadMessages(b, s, "q", dead)
	for i := 0; i < live; i++ {
		if _, err := s.SendMessage("q", []byte("live")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Steady state: receive a live message, then release it back
	// to the visible pool so the live population stays at 100.
	for i := 0; i < b.N; i++ {
		m, ok, err := s.ReceiveMessage("q", time.Hour)
		if err != nil || !ok {
			b.Fatal("receive found nothing despite live messages")
		}
		if err := s.ChangeVisibility("q", m.ReceiptHandle, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchApproximateCount measures the autoscaler's observation call on
// the same dead-backlog shape: maintained counters versus a
// full-history scan.
func benchApproximateCount(b *testing.B, s benchStore) {
	const dead = 100_000
	s.CreateQueue("q")
	seedDeadMessages(b, s, "q", dead)
	for i := 0; i < 100; i++ {
		s.SendMessage("q", []byte("live"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ApproximateCount("q"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueBatchRoundTrip compares per-message and batched API use
// for the same 10-message workload — the request-count (and therefore
// cost-model) difference, not just CPU.
func BenchmarkQueueBatchRoundTrip(b *testing.B) {
	bodies := make([][]byte, MaxBatch)
	for i := range bodies {
		bodies[i] = []byte("task payload")
	}
	b.Run("single", func(b *testing.B) {
		s := NewService(Config{Seed: 1})
		s.CreateQueue("q")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				s.SendMessage("q", body)
			}
			for range bodies {
				m, ok, err := s.ReceiveMessage("q", time.Hour)
				if err != nil || !ok {
					b.Fatal("receive failed")
				}
				if err := s.DeleteMessage("q", m.ReceiptHandle); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(s.APIRequests())/float64(b.N), "requests/roundtrip")
	})
	b.Run("batch", func(b *testing.B) {
		s := NewService(Config{Seed: 1})
		s.CreateQueue("q")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SendMessageBatch("q", bodies); err != nil {
				b.Fatal(err)
			}
			msgs, err := s.ReceiveMessageBatch("q", time.Hour, MaxBatch, 0)
			if err != nil || len(msgs) != MaxBatch {
				b.Fatalf("batch receive: %d err=%v", len(msgs), err)
			}
			receipts := make([]string, len(msgs))
			for j, m := range msgs {
				receipts[j] = m.ReceiptHandle
			}
			if _, err := s.DeleteMessageBatch("q", receipts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.APIRequests())/float64(b.N), "requests/roundtrip")
	})
}
