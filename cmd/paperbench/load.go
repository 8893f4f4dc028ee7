package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/queue"
	"repro/internal/queue/shard"
)

// stream is one slice of a load run: workers goroutines on each of
// queues, every one running cycles send → receive → delete cycles with
// body, each receive long-polling up to wait.
type stream struct {
	queues  []string
	workers int
	cycles  int
	body    []byte
	wait    time.Duration
}

// runLoad runs every stream's workers concurrently against api and
// returns the wall time from the first worker's start until the last
// one exits, and the first op error. A worker stops at its own first
// error; the others finish their cycles. A receive that finds nothing
// skips its delete. When recvNs is non-nil it collects every receive's
// latency in nanoseconds; otherwise no worker reads the clock.
func runLoad(api queue.API, recvNs *[]float64, streams ...stream) (time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	start := time.Now()
	for _, s := range streams {
		for _, qn := range s.queues {
			for w := 0; w < s.workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lat, err := s.work(api, qn, recvNs != nil)
					mu.Lock()
					defer mu.Unlock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if recvNs != nil {
						*recvNs = append(*recvNs, lat...)
					}
				}()
			}
		}
	}
	wg.Wait()
	return time.Since(start), firstErr
}

// work is one worker's cycles on queue qn; with timed set it returns
// the latency of every receive it made.
func (s stream) work(api queue.API, qn string, timed bool) ([]float64, error) {
	var lat []float64
	if timed {
		lat = make([]float64, 0, s.cycles)
	}
	for i := 0; i < s.cycles; i++ {
		if _, err := api.SendMessage(qn, s.body); err != nil {
			return lat, fmt.Errorf("send to %s: %w", qn, err)
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		m, ok, err := api.ReceiveMessageWait(qn, time.Hour, s.wait)
		if timed {
			lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		}
		if err != nil {
			return lat, fmt.Errorf("receive from %s: %w", qn, err)
		}
		if !ok {
			continue
		}
		if err := api.DeleteMessage(qn, m.ReceiptHandle); err != nil {
			return lat, fmt.Errorf("delete from %s: %w", qn, err)
		}
	}
	return lat, nil
}

// queueNames formats n queue names from a pattern with one %d verb.
func queueNames(pattern string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(pattern, i)
	}
	return names
}

// createQueues creates every named queue on api.
func createQueues(api queue.API, names ...[]string) error {
	for _, group := range names {
		for _, qn := range group {
			if err := api.CreateQueue(qn); err != nil {
				return err
			}
		}
	}
	return nil
}

// bestOf runs measure n times and returns the result better ranks
// highest, so one run descheduled by background load does not poison
// a committed baseline or a CI comparison. The first error aborts.
func bestOf[T any](n int, better func(a, b T) bool, measure func() (T, error)) (T, error) {
	var best T
	for i := 0; i < n; i++ {
		v, err := measure()
		if err != nil {
			return best, err
		}
		if i == 0 || better(v, best) {
			best = v
		}
	}
	return best, nil
}

func higher(a, b float64) bool { return a > b }
func lower(a, b float64) bool  { return a < b }

// writeBaseline writes rep to path as an indented JSON baseline.
func writeBaseline(path string, rep any) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
		return
	}
	fmt.Println("baseline written to", path)
}

// newFleet builds a router over n shards named s0…s{n-1}, shard i
// served by backend(i). On error the router is closed.
func newFleet(n int, backend func(i int) (queue.API, error)) (*shard.Router, error) {
	router := shard.NewRouter(shard.Config{})
	for i := 0; i < n; i++ {
		b, err := backend(i)
		if err == nil {
			err = router.AddShard(fmt.Sprintf("s%d", i), b)
		}
		if err != nil {
			router.Close()
			return nil, err
		}
	}
	return router, nil
}

// plainShard is shard i as an unthrottled in-process service.
func plainShard(i int) (queue.API, error) {
	return queue.NewService(queue.Config{Seed: int64(i + 1)}), nil
}

// throttledShards returns shards with a modeled request capacity of
// concurrency slots of serviceTimeMs each (see queue.Config.ServiceTime).
func throttledShards(serviceTimeMs float64, concurrency int) func(int) (queue.API, error) {
	return func(i int) (queue.API, error) {
		return queue.NewService(queue.Config{
			Seed:               int64(i + 1),
			ServiceTime:        time.Duration(serviceTimeMs * float64(time.Millisecond)),
			ServiceConcurrency: concurrency,
		}), nil
	}
}
