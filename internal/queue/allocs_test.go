package queue

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blob"
)

// Allocation budgets for one cycle of MaxBatch messages: a
// SendMessageBatch, a ReceiveMessageBatch of all of them and a
// DeleteMessageBatch of their receipts. Per message the ephemeral
// service needs its ID, its receipt, its *message, its list element
// and the body pool's slice header on delete; the rest is per call
// (the ID and result slices, the delivered messages). A durable
// service adds a few allocations per journaled call.
// Formatting IDs with fmt, growing per-pick slices while planning a
// receive, allocating a notify channel on every send, or encoding
// journal records by reflection each break these budgets.
const (
	cycleAllocBudgetEphemeral = 75
	cycleAllocBudgetDurable   = 100
)

func cycleAllocs(t *testing.T, s *Service) float64 {
	t.Helper()
	if err := s.CreateQueue("tasks"); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, MaxBatch)
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{'a' + byte(i)}, 256)
	}
	receipts := make([]string, MaxBatch)
	return testing.AllocsPerRun(100, func() {
		if _, err := s.SendMessageBatch("tasks", bodies); err != nil {
			t.Fatal(err)
		}
		msgs, err := s.ReceiveMessageBatch("tasks", time.Minute, MaxBatch, 0)
		if err != nil || len(msgs) != MaxBatch {
			t.Fatalf("received %d messages: %v", len(msgs), err)
		}
		for i, m := range msgs {
			receipts[i] = m.ReceiptHandle
		}
		results, err := s.DeleteMessageBatch("tasks", receipts)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res != nil {
				t.Fatal(res)
			}
		}
	})
}

func TestCycleAllocBudgetEphemeral(t *testing.T) {
	allocs := cycleAllocs(t, NewService(Config{Seed: 1}))
	t.Logf("%.0f allocations per cycle", allocs)
	if allocs > cycleAllocBudgetEphemeral {
		t.Fatalf("send/receive/delete of %d messages allocates %.0f times, budget %d", MaxBatch, allocs, cycleAllocBudgetEphemeral)
	}
}

func TestCycleAllocBudgetDurable(t *testing.T) {
	s := NewService(Config{Seed: 1, Durability: &Durability{Store: blob.NewStore(blob.Config{}), Bucket: "journal", Key: "shard-0"}})
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	allocs := cycleAllocs(t, s)
	t.Logf("%.0f allocations per cycle", allocs)
	if allocs > cycleAllocBudgetDurable {
		t.Fatalf("durable send/receive/delete of %d messages allocates %.0f times, budget %d", MaxBatch, allocs, cycleAllocBudgetDurable)
	}
}
