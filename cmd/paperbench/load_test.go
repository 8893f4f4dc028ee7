package main

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/queue"
)

const loadQueues, loadWorkers, loadCycles = 3, 4, 25

func loadStream(t *testing.T, api queue.API) stream {
	t.Helper()
	qs := queueNames("q%d", loadQueues)
	if err := createQueues(api, qs); err != nil {
		t.Fatal(err)
	}
	return stream{queues: qs, workers: loadWorkers, cycles: loadCycles, body: []byte("task")}
}

func TestRunLoadBillsThreeRequestsPerCycleAndDrains(t *testing.T) {
	svc := queue.NewService(queue.Config{Seed: 1})
	s := loadStream(t, svc)
	base := make(map[string]int64)
	for _, qn := range s.queues {
		base[qn] = svc.APIRequestsFor(qn)
	}
	if _, err := runLoad(svc, nil, s); err != nil {
		t.Fatal(err)
	}
	for _, qn := range s.queues {
		if got, want := svc.APIRequestsFor(qn)-base[qn], int64(3*loadWorkers*loadCycles); got != want {
			t.Errorf("%s billed %d requests, want %d", qn, got, want)
		}
		vis, inf, err := svc.ApproximateCount(qn)
		if err != nil || vis != 0 || inf != 0 {
			t.Errorf("%s left %d visible / %d in flight (err %v), want 0 / 0", qn, vis, inf, err)
		}
	}
}

var errInjected = errors.New("injected delete failure")

// failingDeletes fails the failAt-th DeleteMessage call and passes
// every other call through.
type failingDeletes struct {
	queue.API
	deletes atomic.Int64
	failAt  int64
}

func (f *failingDeletes) DeleteMessage(qn, receipt string) error {
	if f.deletes.Add(1) == f.failAt {
		return errInjected
	}
	return f.API.DeleteMessage(qn, receipt)
}

func TestRunLoadReturnsFirstOpError(t *testing.T) {
	api := &failingDeletes{API: queue.NewService(queue.Config{Seed: 1}), failAt: 5}
	// runLoad returning at all means every worker exited.
	_, err := runLoad(api, nil, loadStream(t, api))
	if !errors.Is(err, errInjected) {
		t.Fatalf("runLoad error = %v, want %v", err, errInjected)
	}
}

func TestRunLoadRecordsOneLatencyPerReceive(t *testing.T) {
	svc := queue.NewService(queue.Config{Seed: 1})
	var recvNs []float64
	if _, err := runLoad(svc, &recvNs, loadStream(t, svc)); err != nil {
		t.Fatal(err)
	}
	if got, want := len(recvNs), loadQueues*loadWorkers*loadCycles; got != want {
		t.Fatalf("%d latency samples, want %d (one per receive)", got, want)
	}
}
