// Package classiccloud implements the paper's Classic Cloud processing
// model (Figure 1): a client uploads input files to cloud storage and
// populates a scheduling queue with one task message per file;
// independent workers running on cloud instances pull tasks from the
// queue, download the input, run the configured executable, upload the
// result, and only then delete the task message. The queue's visibility
// timeout provides fault tolerance — a task whose worker dies reappears
// and is re-executed — and task idempotency makes duplicate execution
// harmless. A monitoring queue reports completions back to the client.
package classiccloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
)

// Env bundles the cloud infrastructure services a deployment uses —
// the (S3/Azure Blob, SQS/Azure Queue) pair. Queue is any queue.API:
// a single in-process service, a remote service over HTTP, or a
// shard.Router fanning the namespace across many services.
type Env struct {
	Blob  blob.API
	Queue queue.API
}

// Task describes one unit of work: a single input file producing a
// single output file, as in the paper's applications.
type Task struct {
	ID           string `json:"id"`
	InputBucket  string `json:"input_bucket"`
	InputKey     string `json:"input_key"`
	OutputBucket string `json:"output_bucket"`
	OutputKey    string `json:"output_key"`
}

// Executor is the "configured executable program" a worker runs on each
// downloaded input file.
type Executor interface {
	// Name identifies the application (for queue/bucket naming).
	Name() string
	// Execute transforms one input file into one output file. It must be
	// deterministic or at least idempotent: the Classic Cloud model may
	// run a task more than once.
	Execute(task Task, input []byte) ([]byte, error)
}

// Preloader is implemented by executors that must stage shared data on
// each instance before processing tasks — the paper's BLAST database
// download-and-extract step.
type Preloader interface {
	Preload(env Env) error
}

// Config tunes a deployment.
type Config struct {
	JobName string // names queues and buckets
	// VisibilityTimeout is the task lease length (default 1m). A
	// worker renews the leases of the batch it is processing every
	// VisibilityTimeout/3, so tasks slower than the lease are not
	// spuriously redelivered — the long-running-worker pattern the
	// queue API exists to support.
	VisibilityTimeout time.Duration
	DownloadRetries   int           // GET retries for eventual consistency (default 8)
	RetryBackoff      time.Duration // spacing between download retries (default 2ms)
	// LongPollWait is how long an idle worker blocks inside the queue's
	// long-poll receive before re-checking its stop signal. It replaces
	// the old poll-interval sleep loop: idle workers park on the queue's
	// wait list and wake the moment a task arrives. Default 50ms;
	// negative forces non-blocking receives.
	LongPollWait time.Duration
	// CrashBeforeDelete is a fault-injection hook: when it returns true
	// the worker "dies" after executing but before deleting the task, so
	// the visibility timeout must recover the work.
	CrashBeforeDelete func(workerID int, task Task) bool
	// MaxReceives caps deliveries per task message. A message received
	// more than MaxReceives times is treated as poison: it is removed
	// from the task queue and, when DeadLetterQueue is set, parked there
	// for offline inspection (the SQS redrive-policy pattern). 0 disables
	// the cap, preserving the seed's retry-forever behaviour.
	MaxReceives int
	// DeadLetterQueue receives poison task messages (over the receive
	// cap, or undecodable). Empty means poison messages are dropped.
	DeadLetterQueue string
	// InstanceType labels this deployment's monitor reports with the
	// instance type running the workers (cloud.InstanceType.Key() form,
	// "provider/name"), so per-type service-time calibration can keep a
	// mixed fleet's samples apart. Empty omits the label (reports from
	// before the field existed parse the same way).
	InstanceType string
}

const (
	// receiveBatch is how many tasks a worker pulls per receive call.
	// Task acknowledgements and monitor reports are batched the same
	// way, so the queue bill amortizes to roughly 3 requests per
	// receiveBatch tasks instead of 3 per task.
	receiveBatch = 4
	// errorBackoff spaces a worker's receives after a failed one.
	errorBackoff = 2 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.JobName == "" {
		c.JobName = "job"
	}
	if c.VisibilityTimeout <= 0 {
		c.VisibilityTimeout = time.Minute
	}
	if c.DownloadRetries == 0 {
		c.DownloadRetries = 8
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.LongPollWait == 0 {
		c.LongPollWait = 50 * time.Millisecond
	}
	return c
}

// Queue and bucket names derived from the job name. Queue names use
// the job name as a placement-group prefix ("job/tasks"), so a sharded
// queue deployment (internal/queue/shard) co-locates one job's task,
// monitor, and dead-letter queues on a single shard and its queue
// traffic never crosses shards.
func (c Config) taskQueue() string    { return c.JobName + "/tasks" }
func (c Config) monitorQueue() string { return c.JobName + "/monitor" }

// TaskQueue returns the job's scheduling queue name (for layers, like
// the elastic broker, that observe queue depth directly).
func (c Config) TaskQueue() string { return c.taskQueue() }

// MonitorQueue returns the job's monitoring queue name.
func (c Config) MonitorQueue() string { return c.monitorQueue() }

// MonitorReport is one decoded monitoring-queue report.
type MonitorReport struct {
	TaskID   string
	WorkerID int
	Status   string // StatusDone or StatusDead
	// ServiceTime is the worker-measured duration of the task pipeline
	// (download → execute → upload), the per-task service time the
	// paper's variability analysis distributes. Zero for dead-letter
	// reports and for reports written before the field existed.
	ServiceTime time.Duration
	// InstanceType is the reporting instance's type key
	// ("provider/name"); empty for reports from deployments that did
	// not set Config.InstanceType.
	InstanceType string
}

// ParseMonitorReport decodes one monitoring-queue report.
func ParseMonitorReport(body []byte) (MonitorReport, error) {
	var mm monitorMsg
	if err := json.Unmarshal(body, &mm); err != nil {
		return MonitorReport{}, fmt.Errorf("classiccloud: bad monitor message: %w", err)
	}
	return MonitorReport{
		TaskID:       mm.TaskID,
		WorkerID:     mm.WorkerID,
		Status:       mm.Status,
		ServiceTime:  time.Duration(mm.ServiceNS),
		InstanceType: mm.InstanceType,
	}, nil
}

// InputBucket returns the job's input bucket name.
func (c Config) InputBucket() string { return c.JobName + "-input" }

// OutputBucket returns the job's output bucket name.
func (c Config) OutputBucket() string { return c.JobName + "-output" }

// Task terminal statuses reported on the monitor queue.
const (
	StatusDone = "done"
	// StatusDead marks a task that exhausted its receive cap and was
	// parked on the dead-letter queue instead of completing.
	StatusDead = "dead"
)

// monitorMsg is the completion report workers push to the monitor queue.
type monitorMsg struct {
	TaskID   string `json:"task_id"`
	WorkerID int    `json:"worker_id"`
	Status   string `json:"status"` // StatusDone or StatusDead
	// ServiceNS is the task's measured pipeline duration in nanoseconds
	// (done reports only).
	ServiceNS int64 `json:"service_ns,omitempty"`
	// InstanceType is the reporting instance's type key (omitted when
	// the deployment does not label itself; old reports parse the same).
	InstanceType string `json:"instance_type,omitempty"`
}

// Client drives a Classic Cloud job: setup, submission, and completion
// tracking.
type Client struct {
	env Env
	cfg Config
}

// NewClient returns a client for the given environment.
func NewClient(env Env, cfg Config) *Client {
	return &Client{env: env, cfg: cfg.withDefaults()}
}

// Setup creates the job's queues and buckets. It is idempotent.
func (c *Client) Setup() error {
	queues := []string{c.cfg.taskQueue(), c.cfg.monitorQueue()}
	if c.cfg.DeadLetterQueue != "" {
		queues = append(queues, c.cfg.DeadLetterQueue)
	}
	for _, q := range queues {
		if err := c.env.Queue.CreateQueue(q); err != nil && !errors.Is(err, queue.ErrQueueExists) {
			return fmt.Errorf("classiccloud: creating queue %s: %w", q, err)
		}
	}
	for _, b := range []string{c.cfg.InputBucket(), c.cfg.OutputBucket()} {
		if err := c.env.Blob.CreateBucket(b); err != nil && !errors.Is(err, blob.ErrBucketExists) {
			return fmt.Errorf("classiccloud: creating bucket %s: %w", b, err)
		}
	}
	return nil
}

// SubmitFiles uploads each named input file to the input bucket and
// enqueues one task per file, in sorted name order. Tasks are enqueued
// in batches of queue.MaxBatch, each billed as one request; every
// file of a batch is uploaded before the batch is sent, so a worker
// never receives a task whose input is missing. Output keys get an
// ".out" suffix.
func (c *Client) SubmitFiles(files map[string][]byte) ([]Task, error) {
	// Deterministic submission order simplifies reproducibility.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	tasks := c.cfg.TasksFromIDs(names)
	for start := 0; start < len(names); start += queue.MaxBatch {
		end := min(start+queue.MaxBatch, len(names))
		bodies := make([][]byte, 0, end-start)
		for i, name := range names[start:end] {
			if err := c.env.Blob.Put(c.cfg.InputBucket(), name, files[name]); err != nil {
				return nil, fmt.Errorf("classiccloud: uploading %s: %w", name, err)
			}
			body, err := json.Marshal(tasks[start+i])
			if err != nil {
				return nil, fmt.Errorf("classiccloud: encoding task: %w", err)
			}
			bodies = append(bodies, body)
		}
		if _, err := c.env.Queue.SendMessageBatch(c.cfg.taskQueue(), bodies); err != nil {
			return nil, fmt.Errorf("classiccloud: enqueueing batch from %s: %w", names[start], err)
		}
	}
	return tasks, nil
}

// Reattach re-adopts a previously submitted job from its task IDs: it
// recreates any missing queues and buckets (Setup is idempotent) and
// reconstructs the task set from the deterministic naming convention
// SubmitFiles uses — WITHOUT re-uploading inputs or re-enqueueing task
// messages. Messages already in the task queue keep their receive
// counts and leases, and completion reports waiting in the monitor
// queue are preserved, so a recovering controller (the journaled
// broker) resumes monitoring exactly where the dead one stopped.
func (c *Client) Reattach(taskIDs []string) ([]Task, error) {
	if err := c.Setup(); err != nil {
		return nil, err
	}
	return c.cfg.TasksFromIDs(taskIDs), nil
}

// TasksFromIDs reconstructs the task set SubmitFiles created for these
// IDs from the deterministic naming convention (input key = ID, output
// key = ID + ".out"). It is the single definition of that convention:
// SubmitFiles, Reattach, and recovering controllers all agree through
// it.
func (c Config) TasksFromIDs(taskIDs []string) []Task {
	tasks := make([]Task, len(taskIDs))
	for i, id := range taskIDs {
		tasks[i] = Task{
			ID:           id,
			InputBucket:  c.InputBucket(),
			InputKey:     id,
			OutputBucket: c.OutputBucket(),
			OutputKey:    id + ".out",
		}
	}
	return tasks
}

// Report summarizes a completed job.
type Report struct {
	Completed     int
	DeadLettered  int // tasks parked on the dead-letter queue
	Duplicates    int // tasks reported done more than once (re-execution)
	Elapsed       time.Duration
	QueueRequests int64
}

// WaitForCompletion drains the monitoring queue until every task has
// reported a terminal status — done (verifying outputs exist) or dead
// (parked on the dead-letter queue) — or the timeout expires.
func (c *Client) WaitForCompletion(tasks []Task, timeout time.Duration) (Report, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	done := make(map[string]bool, len(tasks))
	dead := make(map[string]bool)
	dups := 0
	// deadOnly excludes tasks that were both dead-lettered and completed
	// (one delivery burned the receive cap while a slow worker finished
	// anyway); completion wins so counts sum to the task total.
	deadOnly := func() int {
		n := 0
		for id := range dead {
			if !done[id] {
				n++
			}
		}
		return n
	}
	settled := func() int { return len(done) + deadOnly() }
	for settled() < len(tasks) {
		if time.Now().After(deadline) {
			return Report{Completed: len(done), DeadLettered: deadOnly(), Duplicates: dups, Elapsed: time.Since(start)},
				fmt.Errorf("classiccloud: timeout after %v with %d/%d tasks complete",
					timeout, settled(), len(tasks))
		}
		// Long-poll a batch of completion reports and acknowledge them
		// with one delete call, instead of one receive + one delete per
		// report plus an idle sleep loop.
		msgs, err := c.env.Queue.ReceiveMessageBatch(
			c.cfg.monitorQueue(), time.Minute, queue.MaxBatch, c.cfg.LongPollWait)
		if err != nil {
			return Report{}, err
		}
		if len(msgs) == 0 {
			continue // the long poll already waited
		}
		// Decode every report BEFORE the delete: an in-process queue
		// recycles a message's body buffer when it is deleted, so a body
		// read afterwards may already hold another message's bytes.
		receipts := make([]string, len(msgs))
		reports := make([]monitorMsg, len(msgs))
		for i, m := range msgs {
			receipts[i] = m.ReceiptHandle
			if json.Unmarshal(m.Body, &reports[i]) != nil {
				// Corrupt report: skip it rather than abort — the batch is
				// deleted below, and aborting would discard the valid
				// completions travelling alongside it.
				reports[i] = monitorMsg{}
			}
		}
		results, err := c.env.Queue.DeleteMessageBatch(c.cfg.monitorQueue(), receipts)
		if err != nil {
			return Report{}, err
		}
		for i, mm := range reports {
			if results[i] != nil || mm.TaskID == "" {
				continue // redelivered (counted once via the map) or corrupt
			}
			if mm.Status == StatusDead {
				dead[mm.TaskID] = true
				continue
			}
			if done[mm.TaskID] {
				dups++
			}
			done[mm.TaskID] = true
		}
	}
	// Verify all completed outputs are present (consistent read: the
	// client retries until visible in a real deployment). Dead-lettered
	// tasks produced no output by definition.
	for _, t := range tasks {
		if dead[t.ID] && !done[t.ID] {
			continue
		}
		if _, _, err := c.env.Blob.Stat(t.OutputBucket, t.OutputKey); err != nil {
			return Report{}, fmt.Errorf("classiccloud: output %s missing after completion", t.OutputKey)
		}
	}
	return Report{
		Completed:     len(done),
		DeadLettered:  deadOnly(),
		Duplicates:    dups,
		Elapsed:       time.Since(start),
		QueueRequests: c.env.Queue.APIRequests(),
	}, nil
}

// Progress is a point-in-time view of a running job, assembled from the
// monitoring queue's approximate counts — the paper's "monitoring
// message queue to monitor the progress of the computation".
type Progress struct {
	TasksQueued   int // visible task messages (not yet picked up)
	TasksInFlight int // leased to a worker, not yet acknowledged
	Reported      int // completion reports waiting in the monitor queue
}

// Progress samples the job's queues. Counts are approximate in exactly
// the way the underlying queue service's counts are.
func (c *Client) Progress() (Progress, error) {
	var p Progress
	v, f, err := c.env.Queue.ApproximateCount(c.cfg.taskQueue())
	if err != nil {
		return p, err
	}
	p.TasksQueued, p.TasksInFlight = v, f
	v, f, err = c.env.Queue.ApproximateCount(c.cfg.monitorQueue())
	if err != nil {
		return p, err
	}
	p.Reported = v + f
	return p, nil
}

// CollectOutputs downloads every task output.
func (c *Client) CollectOutputs(tasks []Task) (map[string][]byte, error) {
	out := make(map[string][]byte, len(tasks))
	for _, t := range tasks {
		data, err := c.env.Blob.GetConsistent(t.OutputBucket, t.OutputKey)
		if err != nil {
			return nil, fmt.Errorf("classiccloud: collecting %s: %w", t.OutputKey, err)
		}
		out[t.ID] = data
	}
	return out, nil
}

// Instance models one cloud VM running a pool of worker processes, the
// paper's "number of workers per instance" knob.
type Instance struct {
	env     Env
	cfg     Config
	exec    Executor
	stop    chan struct{}
	wg      sync.WaitGroup
	stats   InstanceStats
	stopped atomic.Bool
	killed  atomic.Bool
}

// InstanceStats counts worker activity.
type InstanceStats struct {
	TasksExecuted  atomic.Int64
	TasksAbandoned atomic.Int64 // crash-injected abandonments
	DeadLettered   atomic.Int64 // poison tasks parked on the dead-letter queue
	ExecErrors     atomic.Int64
	StaleDeletes   atomic.Int64 // task finished by us but lease had expired
	DownloadRetrys atomic.Int64
	// BusyNanos accumulates wall time workers spent inside the task
	// pipeline (download → execute → upload), the numerator of fleet
	// utilization.
	BusyNanos atomic.Int64
}

// StartInstance launches workersPerInstance worker goroutines. The
// executor's Preload (if any) runs once before workers start, like the
// paper's database staging.
func StartInstance(env Env, cfg Config, exec Executor, workersPerInstance int) (*Instance, error) {
	cfg = cfg.withDefaults()
	inst := &Instance{env: env, cfg: cfg, exec: exec, stop: make(chan struct{})}
	if p, ok := exec.(Preloader); ok {
		if err := p.Preload(env); err != nil {
			return nil, fmt.Errorf("classiccloud: preload: %w", err)
		}
	}
	for w := 0; w < workersPerInstance; w++ {
		inst.wg.Add(1)
		go inst.workerLoop(w)
	}
	return inst, nil
}

// Stop shuts the instance down and waits for workers to exit. Workers
// finish (and acknowledge) their current task first — the graceful
// drain of a planned scale-down.
func (inst *Instance) Stop() {
	if inst.stopped.CompareAndSwap(false, true) {
		close(inst.stop)
	}
	inst.wg.Wait()
}

// Kill simulates a worker crash or spot-instance preemption: workers
// abandon whatever task they are processing without acknowledging or
// uploading it, so the queue's visibility timeout must recover the
// work on another instance — the paper's fault-tolerance story
// exercised for real.
func (inst *Instance) Kill() {
	inst.killed.Store(true)
	inst.Stop()
}

// Stats exposes the instance counters.
func (inst *Instance) Stats() *InstanceStats { return &inst.stats }

func (inst *Instance) workerLoop(workerID int) {
	defer inst.wg.Done()
	for {
		select {
		case <-inst.stop:
			return
		default:
		}
		// Long poll: an idle worker parks on the queue's wait list and
		// wakes when a task arrives or a lease expires, instead of
		// burning a receive request on a fixed poll.
		msgs, err := inst.env.Queue.ReceiveMessageBatch(
			inst.cfg.taskQueue(), inst.cfg.VisibilityTimeout,
			receiveBatch, inst.cfg.LongPollWait)
		if err != nil {
			select {
			case <-inst.stop:
				return
			case <-time.After(errorBackoff):
			}
			continue
		}
		if len(msgs) == 0 {
			continue // the long poll already waited; just re-check stop
		}
		inst.processBatch(workerID, msgs)
	}
}

// processBatch runs every task of one receive batch, then reports the
// completed ones with a single batch send and acknowledges them with a
// single batch delete — 3 queue requests per batch on the happy path.
// A task is deleted only once its report was accepted.
func (inst *Instance) processBatch(workerID int, msgs []queue.Message) {
	// One lease renewer covers the whole batch: tasks queued behind a
	// slow one must keep their leases alive too.
	receipts := make([]string, len(msgs))
	for i, m := range msgs {
		receipts[i] = m.ReceiptHandle
	}
	renew := inst.startLeaseRenewer(receipts)
	defer renew.stop()
	var ackReceipts []string
	var reports [][]byte
	for _, m := range msgs {
		var task Task
		if err := json.Unmarshal(m.Body, &task); err != nil {
			// Undecodable message: park it so it cannot wedge the queue.
			inst.deadLetter(workerID, "", m)
			renew.remove(m.ReceiptHandle)
			continue
		}
		if inst.cfg.MaxReceives > 0 && m.Receives > inst.cfg.MaxReceives {
			// Poison task: it has burned through its retry budget
			// (executor failures, repeated crashes) — take it out of
			// rotation instead of retrying forever.
			inst.deadLetter(workerID, task.ID, m)
			renew.remove(m.ReceiptHandle)
			continue
		}
		taskStart := time.Now()
		if inst.processTask(workerID, task) {
			ackReceipts = append(ackReceipts, m.ReceiptHandle)
			mm, _ := json.Marshal(monitorMsg{
				TaskID: task.ID, WorkerID: workerID, Status: StatusDone,
				ServiceNS:    int64(time.Since(taskStart)),
				InstanceType: inst.cfg.InstanceType,
			})
			reports = append(reports, mm)
		} else {
			// The task was not acknowledged (failure, crash injection, or
			// preemption): stop renewing its lease so the visibility
			// timeout re-exposes it on schedule, not after the rest of
			// this batch finishes.
			renew.remove(m.ReceiptHandle)
		}
	}
	// Report BEFORE deleting: a crash between the two, or a report
	// the queue refused, then redelivers the task — re-executed
	// (idempotent) and re-reported (the broker's fold drops settled
	// repeats) — instead of silently losing the settlement of a deleted
	// task, which no retry would ever repair.
	for start := 0; start < len(reports); start += queue.MaxBatch {
		end := min(start+queue.MaxBatch, len(reports))
		acks := ackReceipts[start:end]
		if _, err := inst.env.Queue.SendMessageBatch(inst.cfg.monitorQueue(), reports[start:end]); err != nil {
			for _, receipt := range acks {
				renew.remove(receipt)
			}
			continue
		}
		results, err := inst.env.Queue.DeleteMessageBatch(inst.cfg.taskQueue(), acks)
		if err != nil {
			continue
		}
		for _, r := range results {
			if r != nil {
				// Our lease expired and the task was re-issued; the result
				// is already uploaded and tasks are idempotent, so this is
				// harmless.
				inst.stats.StaleDeletes.Add(1)
			}
		}
	}
}

// deadLetter parks a poison message's body on the dead-letter queue
// (when configured), reports the task dead on the monitor queue so
// clients stop waiting for it, and only then removes it from the task
// queue. If either send fails the message stays in the task queue: it
// will be redelivered and dead-lettering retried.
func (inst *Instance) deadLetter(workerID int, taskID string, m queue.Message) {
	if inst.cfg.DeadLetterQueue != "" {
		if _, err := inst.env.Queue.SendMessage(inst.cfg.DeadLetterQueue, m.Body); err != nil {
			return
		}
	}
	if taskID != "" {
		mm, _ := json.Marshal(monitorMsg{TaskID: taskID, WorkerID: workerID, Status: StatusDead})
		if _, err := inst.env.Queue.SendMessage(inst.cfg.monitorQueue(), mm); err != nil {
			return
		}
	}
	if err := inst.env.Queue.DeleteMessage(inst.cfg.taskQueue(), m.ReceiptHandle); err != nil {
		inst.stats.StaleDeletes.Add(1)
		return
	}
	inst.stats.DeadLettered.Add(1)
}

// processTask is the worker pipeline of Figure 1: download → execute →
// upload. It reports whether the task succeeded and should be
// acknowledged (batch-deleted) and reported done by the caller.
func (inst *Instance) processTask(workerID int, task Task) bool {
	start := time.Now()
	defer func() { inst.stats.BusyNanos.Add(int64(time.Since(start))) }()
	input, err := inst.downloadWithRetry(task.InputBucket, task.InputKey)
	if err != nil {
		// Leave the message undeleted; it will reappear and be retried.
		inst.stats.ExecErrors.Add(1)
		return false
	}
	output, err := inst.exec.Execute(task, input)
	if err != nil {
		inst.stats.ExecErrors.Add(1)
		return false // visibility timeout will re-expose the task
	}
	if inst.killed.Load() {
		// The instance was preempted mid-task: abandon without
		// acknowledging so the visibility timeout re-exposes the work.
		inst.stats.TasksAbandoned.Add(1)
		return false
	}
	if inst.cfg.CrashBeforeDelete != nil && inst.cfg.CrashBeforeDelete(workerID, task) {
		// Simulated worker death after doing the work but before the
		// acknowledgement: the canonical at-least-once failure.
		inst.stats.TasksAbandoned.Add(1)
		return false
	}
	if err := inst.env.Blob.Put(task.OutputBucket, task.OutputKey, output); err != nil {
		inst.stats.ExecErrors.Add(1)
		return false
	}
	inst.stats.TasksExecuted.Add(1)
	return true
}

// leaseRenewer extends the visibility timeout of a batch's receipts
// every heartbeat so long-running tasks — and tasks queued behind them
// in the same batch — keep their leases. A receipt drops out of renewal
// when it goes stale (deleted, or the lease was lost to another
// worker); renewal stops entirely when the batch finishes or the
// instance is killed (preempted work must reappear promptly).
type leaseRenewer struct {
	mu       sync.Mutex
	receipts map[string]bool
	done     chan struct{}
}

func (r *leaseRenewer) stop() { close(r.done) }

// remove drops one receipt from renewal — called when its task settles
// without an acknowledgement (failure, crash, preemption), so the lease
// expires on schedule and redelivery is not delayed by the rest of the
// batch still processing.
func (r *leaseRenewer) remove(receipt string) {
	r.mu.Lock()
	delete(r.receipts, receipt)
	r.mu.Unlock()
}

func (inst *Instance) startLeaseRenewer(receipts []string) *leaseRenewer {
	r := &leaseRenewer{receipts: make(map[string]bool, len(receipts)), done: make(chan struct{})}
	for _, receipt := range receipts {
		r.receipts[receipt] = true
	}
	go func() {
		ticker := time.NewTicker(inst.cfg.VisibilityTimeout / 3)
		defer ticker.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-ticker.C:
				if inst.killed.Load() {
					return
				}
				r.mu.Lock()
				live := make([]string, 0, len(r.receipts))
				for receipt := range r.receipts {
					live = append(live, receipt)
				}
				r.mu.Unlock()
				for _, receipt := range live {
					if err := inst.env.Queue.ChangeVisibility(
						inst.cfg.taskQueue(), receipt, inst.cfg.VisibilityTimeout); err != nil {
						r.mu.Lock()
						delete(r.receipts, receipt)
						r.mu.Unlock()
					}
				}
			}
		}
	}()
	return r
}

// downloadWithRetry tolerates eventual-consistency NotFound responses by
// retrying, the standard client pattern on S3-era storage.
func (inst *Instance) downloadWithRetry(bucket, key string) ([]byte, error) {
	var lastErr error
	for i := 0; i < inst.cfg.DownloadRetries; i++ {
		data, err := inst.env.Blob.Get(bucket, key)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !errors.Is(err, blob.ErrNoSuchKey) {
			return nil, err
		}
		inst.stats.DownloadRetrys.Add(1)
		time.Sleep(inst.cfg.RetryBackoff)
	}
	return nil, fmt.Errorf("classiccloud: download %s/%s: %w", bucket, key, lastErr)
}

// FuncExecutor adapts a function to the Executor interface.
type FuncExecutor struct {
	AppName string
	Fn      func(task Task, input []byte) ([]byte, error)
}

// Name implements Executor.
func (f FuncExecutor) Name() string { return f.AppName }

// Execute implements Executor.
func (f FuncExecutor) Execute(task Task, input []byte) ([]byte, error) { return f.Fn(task, input) }

// Validate sanity-checks a task.
func (t Task) Validate() error {
	if t.ID == "" || t.InputKey == "" || t.OutputKey == "" {
		return errors.New("classiccloud: incomplete task")
	}
	if strings.ContainsRune(t.ID, '\n') {
		return errors.New("classiccloud: task id contains newline")
	}
	return nil
}
