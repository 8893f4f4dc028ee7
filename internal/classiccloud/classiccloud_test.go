package classiccloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
)

func testEnv() Env {
	return Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 1}),
	}
}

// upperExec is a trivial idempotent executable.
var upperExec = FuncExecutor{
	AppName: "upper",
	Fn: func(_ Task, input []byte) ([]byte, error) {
		return bytes.ToUpper(input), nil
	},
}

// slowUpperExec takes long enough per task that work interleaves across
// workers and instances.
var slowUpperExec = FuncExecutor{
	AppName: "slow-upper",
	Fn: func(_ Task, input []byte) ([]byte, error) {
		time.Sleep(3 * time.Millisecond)
		return bytes.ToUpper(input), nil
	},
}

func makeFiles(n int) map[string][]byte {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("file%03d.txt", i)] = []byte(fmt.Sprintf("content of file %d", i))
	}
	return files
}

func TestEndToEndSingleInstance(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "e2e"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := makeFiles(20)
	tasks, err := client.SubmitFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 20 {
		t.Fatalf("%d tasks", len(tasks))
	}
	inst, err := StartInstance(env, cfg, upperExec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 20 {
		t.Errorf("completed = %d", rep.Completed)
	}
	outputs, err := client.CollectOutputs(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range files {
		if got := outputs[name]; !bytes.Equal(got, bytes.ToUpper(in)) {
			t.Errorf("%s: output %q", name, got)
		}
	}
}

func TestMultipleInstancesShareQueue(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "multi"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(40))
	if err != nil {
		t.Fatal(err)
	}
	var instances []*Instance
	for i := 0; i < 4; i++ {
		inst, err := StartInstance(env, cfg, slowUpperExec, 2)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, inst)
	}
	defer func() {
		for _, in := range instances {
			in.Stop()
		}
	}()
	if _, err := client.WaitForCompletion(tasks, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Dynamic scheduling through the global queue: with 4 identical
	// instances, no single instance should have done all the work.
	total := int64(0)
	busiest := int64(0)
	for _, in := range instances {
		n := in.Stats().TasksExecuted.Load()
		total += n
		if n > busiest {
			busiest = n
		}
	}
	if total < 40 {
		t.Errorf("total executed = %d, want ≥ 40", total)
	}
	if busiest == total {
		t.Error("one instance executed everything; queue sharing broken")
	}
}

func TestVisibilityTimeoutRecoversCrashedWorker(t *testing.T) {
	env := testEnv()
	var crashes atomic.Int64
	cfg := Config{
		JobName:           "crashy",
		VisibilityTimeout: 150 * time.Millisecond,
		// First three tasks observed by worker 0 are abandoned after
		// execution, before deletion.
		CrashBeforeDelete: func(workerID int, task Task) bool {
			return workerID == 0 && crashes.Add(1) <= 3
		},
	}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(12))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, slowUpperExec, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 15*time.Second)
	if err != nil {
		t.Fatalf("job did not recover from crashes: %v", err)
	}
	if rep.Completed != 12 {
		t.Errorf("completed = %d", rep.Completed)
	}
	if inst.Stats().TasksAbandoned.Load() == 0 {
		t.Error("crash injection never fired")
	}
}

// TestLeaseRenewalCoversSlowTask: a task running well past its lease
// keeps it through the worker's renewals, so an idle second worker
// never receives it and it is executed and reported exactly once.
func TestLeaseRenewalCoversSlowTask(t *testing.T) {
	env := testEnv()
	var runs atomic.Int64
	slow := FuncExecutor{
		AppName: "slow",
		Fn: func(_ Task, input []byte) ([]byte, error) {
			runs.Add(1)
			time.Sleep(time.Second)
			return bytes.ToUpper(input), nil
		},
	}
	cfg := Config{JobName: "renew", VisibilityTimeout: 300 * time.Millisecond}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(1))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, slow, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := client.WaitForCompletion(tasks, 15*time.Second)
	inst.Stop() // waits out any second execution a lapsed lease let in
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.Duplicates != 0 {
		t.Errorf("report = %+v, want 1 completed and 0 duplicates", rep)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("task executed %d times, want 1", n)
	}
	if n := inst.Stats().StaleDeletes.Load(); n != 0 {
		t.Errorf("StaleDeletes = %d, want 0", n)
	}
}

func TestEventualConsistencyRetries(t *testing.T) {
	// A consistency window shorter than the retry budget: downloads
	// must succeed via retry.
	env := Env{
		Blob:  blob.NewStore(blob.Config{ConsistencyWindow: 20 * time.Millisecond}),
		Queue: queue.NewService(queue.Config{Seed: 2}),
	}
	cfg := Config{JobName: "ec", DownloadRetries: 30, RetryBackoff: 5 * time.Millisecond}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(6))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if inst.Stats().DownloadRetrys.Load() == 0 {
		t.Log("note: no retries observed (tasks started after the window); acceptable")
	}
}

func TestFailingExecutorRetriesViaTimeout(t *testing.T) {
	env := testEnv()
	var failures atomic.Int64
	flaky := FuncExecutor{
		AppName: "flaky",
		Fn: func(task Task, input []byte) ([]byte, error) {
			// Fail the first two attempts overall.
			if failures.Add(1) <= 2 {
				return nil, errors.New("transient failure")
			}
			return bytes.ToUpper(input), nil
		},
	}
	cfg := Config{JobName: "flaky", VisibilityTimeout: 100 * time.Millisecond}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(4))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, flaky, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if inst.Stats().ExecErrors.Load() < 2 {
		t.Errorf("ExecErrors = %d, want ≥ 2", inst.Stats().ExecErrors.Load())
	}
}

type preloadExec struct {
	FuncExecutor
	preloaded atomic.Bool
}

func (p *preloadExec) Preload(env Env) error {
	// Fetch the shared reference data, like the BLAST DB download.
	if _, err := env.Blob.GetConsistent("shared", "refdata"); err != nil {
		return err
	}
	p.preloaded.Store(true)
	return nil
}

func TestPreloadRunsBeforeWorkers(t *testing.T) {
	env := testEnv()
	env.Blob.CreateBucket("shared")
	env.Blob.Put("shared", "refdata", []byte("reference"))
	pe := &preloadExec{FuncExecutor: upperExec}
	cfg := Config{JobName: "preload"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, pe, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if !pe.preloaded.Load() {
		t.Error("preload did not run")
	}
}

func TestPreloadFailureAbortsInstance(t *testing.T) {
	env := testEnv()
	pe := &preloadExec{FuncExecutor: upperExec} // bucket "shared" missing
	cfg := Config{JobName: "preloadfail"}
	if _, err := StartInstance(env, cfg, pe, 1); err == nil {
		t.Fatal("missing preload data should abort instance start")
	}
}

func TestSetupIsIdempotent(t *testing.T) {
	env := testEnv()
	client := NewClient(env, Config{JobName: "idem"})
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := client.Setup(); err != nil {
		t.Errorf("second Setup: %v", err)
	}
}

func TestWaitTimesOutWithoutWorkers(t *testing.T) {
	env := testEnv()
	client := NewClient(env, Config{JobName: "nobody"})
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, _ := client.SubmitFiles(makeFiles(2))
	_, err := client.WaitForCompletion(tasks, 100*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Errorf("err = %v", err)
	}
}

func TestPoisonMessageDoesNotWedgeWorkers(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "poison"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	// Inject garbage directly into the task queue.
	env.Queue.SendMessage("poison/tasks", []byte("{{{not json"))
	tasks, err := client.SubmitFiles(makeFiles(5))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 10*time.Second); err != nil {
		t.Fatalf("poison message wedged the job: %v", err)
	}
}

func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	// Force aggressive duplicate delivery; every task may run twice but
	// results must be correct and the job must finish.
	env := Env{
		Blob:  blob.NewStore(blob.Config{}),
		Queue: queue.NewService(queue.Config{Seed: 5, DuplicateProb: 0.3}),
	}
	cfg := Config{JobName: "dup"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := makeFiles(15)
	tasks, err := client.SubmitFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	outputs, err := client.CollectOutputs(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range files {
		if !bytes.Equal(outputs[name], bytes.ToUpper(in)) {
			t.Errorf("%s corrupted under duplicate delivery", name)
		}
	}
}

// Monitor reports carry the reporting instance's type (the calibration
// catalog's label); reports from deployments that do not label
// themselves — including every report journaled before the field
// existed — must still parse with the type empty.
func TestMonitorReportCarriesInstanceType(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "typed", InstanceType: "aws/Large"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(map[string][]byte{"a.txt": []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = tasks
	// Read the raw report off the monitor queue (WaitForCompletion would
	// consume it).
	var msgs []queue.Message
	deadline := time.Now().Add(5 * time.Second)
	for len(msgs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no monitor report within 5s")
		}
		msgs, err = env.Queue.ReceiveMessageBatch(cfg.MonitorQueue(), time.Minute, 10, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
	}
	inst.Stop()
	rep, err := ParseMonitorReport(msgs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InstanceType != "aws/Large" {
		t.Errorf("InstanceType = %q, want aws/Large", rep.InstanceType)
	}
	if rep.ServiceTime <= 0 {
		t.Errorf("ServiceTime = %v, want > 0", rep.ServiceTime)
	}

	// Old-format report: no instance_type key at all.
	old := []byte(`{"task_id":"t1","worker_id":3,"status":"done","service_ns":42}`)
	rep, err = ParseMonitorReport(old)
	if err != nil {
		t.Fatalf("old report failed to parse: %v", err)
	}
	if rep.InstanceType != "" {
		t.Errorf("old report InstanceType = %q, want empty", rep.InstanceType)
	}
	if rep.TaskID != "t1" || rep.ServiceTime != 42 {
		t.Errorf("old report fields = %+v", rep)
	}
}

func TestTaskValidate(t *testing.T) {
	good := Task{ID: "a", InputKey: "a", OutputKey: "a.out"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := Task{}
	if err := bad.Validate(); err == nil {
		t.Error("empty task accepted")
	}
	evil := Task{ID: "a\nb", InputKey: "x", OutputKey: "y"}
	if err := evil.Validate(); err == nil {
		t.Error("newline id accepted")
	}
}

func TestStopIsIdempotentAndConcurrent(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "stop"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.Stop()
		}()
	}
	wg.Wait()
}

func TestProgressTracking(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "progress"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Progress()
	if err != nil {
		t.Fatal(err)
	}
	if p.TasksQueued != 10 || p.TasksInFlight != 0 || p.Reported != 0 {
		t.Errorf("before workers: %+v", p)
	}
	inst, err := StartInstance(env, cfg, upperExec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	if _, err := client.WaitForCompletion(tasks, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err = client.Progress()
	if err != nil {
		t.Fatal(err)
	}
	if p.TasksQueued != 0 || p.TasksInFlight != 0 {
		t.Errorf("after completion: %+v", p)
	}
	if _, err := NewClient(env, Config{JobName: "ghost"}).Progress(); err == nil {
		t.Error("progress of unknown job should error")
	}
}

func TestDeadLetterAfterReceiveCap(t *testing.T) {
	env := testEnv()
	poison := FuncExecutor{
		AppName: "poison",
		Fn: func(task Task, input []byte) ([]byte, error) {
			if task.ID == "file001.txt" {
				return nil, errors.New("permanently broken input")
			}
			return bytes.ToUpper(input), nil
		},
	}
	cfg := Config{
		JobName:           "dlq",
		VisibilityTimeout: 20 * time.Millisecond,
		MaxReceives:       3,
		DeadLetterQueue:   "dlq-dead",
	}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(5))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, poison, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Errorf("Completed = %d, want 4", rep.Completed)
	}
	if rep.DeadLettered != 1 {
		t.Errorf("DeadLettered = %d, want 1", rep.DeadLettered)
	}
	if got := inst.Stats().DeadLettered.Load(); got != 1 {
		t.Errorf("instance DeadLettered = %d, want 1", got)
	}
	// The poison message is parked, intact, on the dead-letter queue.
	visible, inflight, err := env.Queue.ApproximateCount("dlq-dead")
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight != 1 {
		t.Errorf("dead-letter queue holds %d messages, want 1", visible+inflight)
	}
	// Task queue must be fully drained: poison cannot wedge it.
	visible, inflight, err = env.Queue.ApproximateCount(cfg.TaskQueue())
	if err != nil {
		t.Fatal(err)
	}
	if visible+inflight != 0 {
		t.Errorf("task queue still holds %d messages", visible+inflight)
	}
}

func TestKillAbandonsInFlightWork(t *testing.T) {
	env := testEnv()
	cfg := Config{JobName: "kill", VisibilityTimeout: 30 * time.Millisecond}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(12))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := StartInstance(env, cfg, slowUpperExec, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Let the victim pick up work, then preempt it mid-stream.
	time.Sleep(5 * time.Millisecond)
	victim.Kill()
	// A survivor fleet recovers the abandoned tasks via the visibility
	// timeout.
	survivor, err := StartInstance(env, cfg, slowUpperExec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Stop()
	rep, err := client.WaitForCompletion(tasks, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(tasks) {
		t.Errorf("Completed = %d, want %d", rep.Completed, len(tasks))
	}
	if victim.Stats().TasksAbandoned.Load() == 0 {
		t.Error("victim abandoned no tasks; Kill was a graceful stop")
	}
}

// failingBatchQueue fails every SendMessageBatch after the first ok
// calls, and records whether each sent task's input was already in
// the blob store when its batch went out.
type failingBatchQueue struct {
	*queue.Service
	blob          *blob.Store
	ok            int
	calls         int
	missingInputs int
}

var errBatchRejected = errors.New("batch rejected")

func (q *failingBatchQueue) SendMessageBatch(name string, bodies [][]byte) ([]string, error) {
	q.calls++
	for _, b := range bodies {
		var task Task
		if err := json.Unmarshal(b, &task); err != nil {
			return nil, err
		}
		if _, _, err := q.blob.Stat(task.InputBucket, task.InputKey); err != nil {
			q.missingInputs++
		}
	}
	if q.calls > q.ok {
		return nil, errBatchRejected
	}
	return q.Service.SendMessageBatch(name, bodies)
}

func sortedNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestSubmitFilesEnqueuesInBatches(t *testing.T) {
	svc := queue.NewService(queue.Config{Seed: 1})
	env := Env{Blob: blob.NewStore(blob.Config{}), Queue: svc}
	cfg := Config{JobName: "batched"}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := makeFiles(25)
	base := svc.APIRequestsFor(cfg.TaskQueue())
	tasks, err := client.SubmitFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.APIRequestsFor(cfg.TaskQueue()) - base; got != 3 {
		t.Errorf("staging 25 files billed %d task-queue requests, want 3", got)
	}
	if !reflect.DeepEqual(tasks, cfg.TasksFromIDs(sortedNames(files))) {
		t.Errorf("returned tasks are not TasksFromIDs of the sorted names: %v", tasks)
	}
	want := make(map[string]Task, len(tasks))
	for _, task := range tasks {
		want[task.ID] = task
	}
	msgs, err := svc.ReceiveMessageBatch(cfg.TaskQueue(), time.Minute, queue.MaxBatch, 0)
	for len(msgs) > 0 && err == nil {
		for _, m := range msgs {
			var task Task
			if err := json.Unmarshal(m.Body, &task); err != nil {
				t.Fatalf("undecodable task message %q: %v", m.Body, err)
			}
			if task != want[task.ID] {
				t.Errorf("message decodes to %+v, want %+v", task, want[task.ID])
			}
			delete(want, task.ID)
		}
		msgs, err = svc.ReceiveMessageBatch(cfg.TaskQueue(), time.Minute, queue.MaxBatch, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Errorf("%d tasks never enqueued (or enqueued twice): %v", len(want), want)
	}
	for name, data := range files {
		if got, err := env.Blob.GetConsistent(cfg.InputBucket(), name); err != nil || !bytes.Equal(got, data) {
			t.Errorf("input %s not staged", name)
		}
	}
}

func TestSubmitFilesWrapsBatchError(t *testing.T) {
	store := blob.NewStore(blob.Config{})
	q := &failingBatchQueue{Service: queue.NewService(queue.Config{Seed: 1}), blob: store, ok: 1}
	client := NewClient(Env{Blob: store, Queue: q}, Config{JobName: "rejected"})
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	files := makeFiles(25)
	_, err := client.SubmitFiles(files)
	if !errors.Is(err, errBatchRejected) {
		t.Fatalf("SubmitFiles error = %v, want it to wrap %v", err, errBatchRejected)
	}
	// The second batch starts at the eleventh sorted name.
	if first := sortedNames(files)[queue.MaxBatch]; !strings.Contains(err.Error(), first) {
		t.Errorf("error %q does not name the failed batch's first file %s", err, first)
	}
	if q.calls != 2 {
		t.Errorf("SubmitFiles made %d batch calls, want it to stop at the failed second", q.calls)
	}
	if q.missingInputs != 0 {
		t.Errorf("%d tasks were sent before their input was uploaded", q.missingInputs)
	}
}

// recyclingQueue overwrites, right after every monitor-queue delete,
// the body buffers that delete just returned to the in-process queue's
// pool, as a worker's next report batch does on a live queue.
type recyclingQueue struct {
	*queue.Service
	bodyLen int
	t       *testing.T
}

func (q recyclingQueue) DeleteMessageBatch(name string, receipts []string) ([]error, error) {
	results, err := q.Service.DeleteMessageBatch(name, receipts)
	junk := make([][]byte, len(receipts))
	for i := range junk {
		junk[i] = bytes.Repeat([]byte{'#'}, q.bodyLen)
	}
	if _, err := q.Service.SendMessageBatch("spare", junk); err != nil {
		q.t.Errorf("reusing freed buffers: %v", err)
	}
	return results, err
}

// TestWaitForCompletionDecodesReportsBeforeDelete guards against
// reading report bodies after deleting them: the in-process queue
// recycles a deleted message's body buffer, so a report decoded after
// its delete can hold another message's bytes and be lost.
func TestWaitForCompletionDecodesReportsBeforeDelete(t *testing.T) {
	svc := queue.NewService(queue.Config{Seed: 1})
	if err := svc.CreateQueue("spare"); err != nil {
		t.Fatal(err)
	}
	cfg := Config{JobName: "recycle", LongPollWait: -1}
	tasks := cfg.TasksFromIDs([]string{"t00", "t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09",
		"t10", "t11", "t12", "t13", "t14", "t15", "t16", "t17", "t18", "t19"})
	var reports [][]byte
	for _, task := range tasks {
		mm, _ := json.Marshal(monitorMsg{TaskID: task.ID, Status: StatusDone})
		reports = append(reports, mm)
	}
	env := Env{Blob: blob.NewStore(blob.Config{}), Queue: recyclingQueue{Service: svc, bodyLen: len(reports[0]), t: t}}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if err := env.Blob.Put(task.OutputBucket, task.OutputKey, []byte("out")); err != nil {
			t.Fatal(err)
		}
	}
	for start := 0; start < len(reports); start += queue.MaxBatch {
		if _, err := svc.SendMessageBatch(cfg.MonitorQueue(), reports[start:start+queue.MaxBatch]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := client.WaitForCompletion(tasks, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(tasks) || rep.Duplicates != 0 {
		t.Errorf("completed=%d duplicates=%d, want %d/0", rep.Completed, rep.Duplicates, len(tasks))
	}
}

// reportRejectingQueue refuses the first failBatches report batches and
// the first failSingles single reports sent to any monitor queue, as a
// queue does during a transient outage.
type reportRejectingQueue struct {
	*queue.Service
	failBatches, failSingles atomic.Int64
}

var errReportRejected = errors.New("report rejected")

func (q *reportRejectingQueue) SendMessageBatch(name string, bodies [][]byte) ([]string, error) {
	if strings.HasSuffix(name, "/monitor") && q.failBatches.Add(-1) >= 0 {
		return nil, errReportRejected
	}
	return q.Service.SendMessageBatch(name, bodies)
}

func (q *reportRejectingQueue) SendMessage(name string, body []byte) (string, error) {
	if strings.HasSuffix(name, "/monitor") && q.failSingles.Add(-1) >= 0 {
		return "", errReportRejected
	}
	return q.Service.SendMessage(name, body)
}

// TestRejectedReportKeepsTasks: a worker whose report batch is refused
// must not delete the tasks it reported, or their completions are lost
// and the job never finishes. Kept, they are redelivered and reported
// again.
func TestRejectedReportKeepsTasks(t *testing.T) {
	q := &reportRejectingQueue{Service: queue.NewService(queue.Config{Seed: 1})}
	q.failBatches.Store(1)
	env := Env{Blob: blob.NewStore(blob.Config{}), Queue: q}
	cfg := Config{JobName: "rejected-report", VisibilityTimeout: 50 * time.Millisecond}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(8))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, upperExec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(tasks) {
		t.Errorf("Completed = %d, want %d", rep.Completed, len(tasks))
	}
	if q.failBatches.Load() >= 0 {
		t.Error("no report batch was rejected; the test injected nothing")
	}
}

// TestRejectedDeadReportKeepsPoisonTask: the dead report of a poison
// task goes out before the task is deleted, so a refused report leaves
// the task to be dead-lettered again instead of never settling.
func TestRejectedDeadReportKeepsPoisonTask(t *testing.T) {
	q := &reportRejectingQueue{Service: queue.NewService(queue.Config{Seed: 1})}
	q.failSingles.Store(1)
	env := Env{Blob: blob.NewStore(blob.Config{}), Queue: q}
	poison := FuncExecutor{
		AppName: "poison",
		Fn: func(task Task, input []byte) ([]byte, error) {
			if task.ID == "file001.txt" {
				return nil, errors.New("permanently broken input")
			}
			return bytes.ToUpper(input), nil
		},
	}
	cfg := Config{JobName: "rejected-dead", VisibilityTimeout: 20 * time.Millisecond, MaxReceives: 2}
	client := NewClient(env, cfg)
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	tasks, err := client.SubmitFiles(makeFiles(3))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := StartInstance(env, cfg, poison, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	rep, err := client.WaitForCompletion(tasks, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.DeadLettered != 1 {
		t.Errorf("Completed = %d, DeadLettered = %d, want 2 and 1", rep.Completed, rep.DeadLettered)
	}
	if q.failSingles.Load() >= 0 {
		t.Error("no dead report was rejected; the test injected nothing")
	}
}
