package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/cloud"
	"repro/internal/journal"
)

// The broker's durability model is the paper's own: all coordination
// state lives in cloud storage so any controller can die and be
// replaced. Every job lifecycle transition is an event appended to a
// per-job journal object in the blob store, and the in-memory job state
// is nothing but a fold over that journal — the same fold a recovering
// brokerd runs at startup.

// EventType names one job lifecycle transition.
type EventType string

// Journal event types.
const (
	// EvSubmitted opens a journal: the job's identity, tenant, task set,
	// policy, and instance type.
	EvSubmitted EventType = "submitted"
	// EvPlanned records the cost-aware fleet plan when the submission
	// carried a target makespan.
	EvPlanned EventType = "planned"
	// EvScaledUp records one instance launch (one ledger entry opens).
	EvScaledUp EventType = "scaled_up"
	// EvScaledDown records one instance retirement (the ledger entry
	// closes; Preempted marks a spot reclaim).
	EvScaledDown EventType = "scaled_down"
	// EvCheckpoint records a batch of task settlements drained from the
	// monitor queue. It is appended BEFORE the reports are deleted, so a
	// crash between the two redelivers reports that the done-set fold
	// deduplicates — settlements are never lost and never double-counted.
	EvCheckpoint EventType = "checkpoint"
	// EvDeadLettered records tasks parked on the dead-letter queue (a
	// checkpoint carrying only dead IDs uses EvCheckpoint too; this type
	// exists for journals written by future executors that dead-letter
	// outside the monitor path).
	EvDeadLettered EventType = "dead_lettered"
	// EvReplanned records a mid-job re-plan: the broker compared the
	// calibration catalog's observed service times against the plan's
	// modeled baseline, found a sustained shortfall, and re-ran
	// selection against the observed curves. The event carries the new
	// instance type and fleet shape, so recovery replays the switch.
	EvReplanned EventType = "replanned"
	// EvCompleted and EvAborted are terminal.
	EvCompleted EventType = "completed"
	EvAborted   EventType = "aborted"
	// EvAdopted records a broker restart re-adopting the job: every
	// ledger entry still open (instances of the dead process) is closed
	// at the adoption time as orphaned.
	EvAdopted EventType = "adopted"
)

// Event is one journal entry. A single flat struct keeps the wire format
// trivially greppable: unused fields are omitted per type.
type Event struct {
	Type EventType `json:"type"`
	Time time.Time `json:"time"`

	// EvSubmitted.
	App      string           `json:"app,omitempty"`
	Tenant   string           `json:"tenant,omitempty"`
	TaskIDs  []string         `json:"task_ids,omitempty"`
	Provider string           `json:"provider,omitempty"`
	Instance string           `json:"instance,omitempty"`
	Policy   *AutoscalePolicy `json:"policy,omitempty"`
	// TargetNS is the requested target makespan (EvSubmitted; zero when
	// the submission had none). Journaled so a recovered job can keep
	// re-planning against the original deadline.
	TargetNS int64 `json:"target_ns,omitempty"`

	// EvPlanned / EvReplanned.
	PlannedInstances int  `json:"planned_instances,omitempty"`
	PlanMeetsTarget  bool `json:"plan_meets_target,omitempty"`
	// PlanServiceNS is the planning model's expected per-task service
	// time on the planned type — the baseline the re-planner's
	// hysteresis guard compares observations against. A re-plan resets
	// it to the calibrated expectation on the new type, which is the
	// anti-flap: post-switch observations match the new baseline.
	PlanServiceNS int64 `json:"plan_service_ns,omitempty"`
	// PlanCap is the fleet cap the plan was searched under (the policy's
	// MaxInstances before the plan clamped it); re-planning searches the
	// same headroom instead of the clamped cap.
	PlanCap int `json:"plan_cap,omitempty"`
	// ObservedNS is the observed mean service time that triggered a
	// re-plan (EvReplanned only).
	ObservedNS int64 `json:"observed_ns,omitempty"`

	// EvScaledUp / EvScaledDown.
	InstanceID int  `json:"instance_id,omitempty"`
	Preempted  bool `json:"preempted,omitempty"`
	// LaunchFailed marks a scale-down that compensates a journaled
	// launch whose StartInstance failed: the entry never ran and is
	// excluded from the launch count.
	LaunchFailed bool   `json:"launch_failed,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Fleet        int    `json:"fleet,omitempty"`

	// EvCheckpoint / EvDeadLettered.
	Done []string `json:"done,omitempty"`
	Dead []string `json:"dead,omitempty"`
}

// journalJobPrefix namespaces per-job journals inside the journal
// bucket; journalSharedPrefix holds the shared data staged at submission
// so a recovering broker can rebuild executors.
const (
	journalJobPrefix    = "jobs/"
	journalSharedPrefix = "shared/"
)

func journalKey(jobID string) string { return journalJobPrefix + jobID }

func sharedKey(jobID, name string) string {
	return journalSharedPrefix + jobID + "/" + name
}

// jobJournal is a job's durable event log: an internal/journal Log plus
// the compaction policy. The broker used to carry its own append/create
// implementation over the blob store; that machinery now lives in the
// shared journal package (queue shards journal through the same code),
// and what remains here is the broker-specific part — Event encoding
// and the jobRecord snapshot.
type jobJournal struct {
	log journal.Log
	// snapEvery bounds replay: after this many appended events the
	// folded jobRecord is snapshotted and the log truncated. <= 0
	// disables compaction. appends counts events since the last
	// snapshot; both are guarded by the owning Job's mutex.
	snapEvery int
	appends   int
}

// append journals one event. The caller must not act on a state
// transition whose append failed: the journal is the source of truth.
func (jl *jobJournal) append(ev Event) error {
	if jl == nil {
		return nil
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("broker: encoding journal event: %w", err)
	}
	if err := jl.log.Append(line); err != nil {
		return fmt.Errorf("broker: journaling %s: %w", jl.log.Key, err)
	}
	return nil
}

// create opens the journal with its first event, using the journal
// package's compare-and-swap creation so the create is exclusive: a
// restarted broker that reuses a job ID without having Recover()ed
// cannot silently append a second submission onto a dead broker's
// journal and corrupt it.
func (jl *jobJournal) create(ev Event) error {
	if jl == nil {
		return nil
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("broker: encoding journal event: %w", err)
	}
	if err := jl.log.Create(line); err != nil {
		if errors.Is(err, journal.ErrExists) {
			return fmt.Errorf("broker: journal %s already exists (restarted without Recover?): %w", jl.log.Key, err)
		}
		return fmt.Errorf("broker: opening journal %s: %w", jl.log.Key, err)
	}
	return nil
}

// maybeCompact snapshots the folded record and truncates the journal
// once snapEvery events have accumulated — the fix for journals that
// grew one checkpoint per drained monitor batch forever. Compaction is
// best-effort: a failure leaves the journal longer but complete, and
// the counter stays up so the next event retries. Caller holds the
// owning Job's mutex, so no append can race the truncation CAS.
func (jl *jobJournal) maybeCompact(rec *jobRecord) {
	if jl == nil || jl.snapEvery <= 0 {
		return
	}
	jl.appends++
	if jl.appends < jl.snapEvery {
		return
	}
	state, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if err := jl.log.Snapshot(state); err != nil {
		return
	}
	jl.appends = 0
}

// readJournal loads and decodes the events currently in one job's
// journal. For a compacted journal these are only the events since the
// last snapshot; loadJobRecord is the full-state read.
func readJournal(store blob.API, bucket, jobID string) ([]Event, error) {
	v, err := (journal.Log{Store: store, Bucket: bucket, Key: journalKey(jobID)}).Load()
	if err != nil {
		return nil, err
	}
	return decodeEntries(v.Entries)
}

// loadJobRecord rebuilds one job's full folded state: the snapshot of
// the journal's current epoch (when compaction has run) plus a replay
// of every event appended since. Replay cost is bounded by the
// compaction cadence, not by job length.
func loadJobRecord(store blob.API, bucket, jobID string) (*jobRecord, error) {
	v, err := (journal.Log{Store: store, Bucket: bucket, Key: journalKey(jobID)}).Load()
	if err != nil {
		return nil, err
	}
	events, err := decodeEntries(v.Entries)
	if err != nil {
		return nil, err
	}
	if v.Snapshot == nil {
		return foldJournal(jobID, events)
	}
	rec := &jobRecord{}
	if err := json.Unmarshal(v.Snapshot, rec); err != nil {
		return nil, fmt.Errorf("broker: decoding snapshot for %s: %w", jobID, err)
	}
	rec.ID = jobID
	for _, ev := range events {
		if err := rec.apply(ev); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// decodeJournal parses JSON-lines journal bytes.
func decodeJournal(data []byte) ([]Event, error) {
	entries, err := journal.SplitEntries(data)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	return decodeEntries(entries)
}

// decodeEntries decodes journal records into Events.
func decodeEntries(entries [][]byte) ([]Event, error) {
	var events []Event
	for i, line := range entries {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("broker: journal line %d: %w", i+1, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// SyntheticJournal renders a completed-job journal document — one
// submitted event carrying nTasks task IDs, one checkpoint per task,
// one completed event — in the JSON-lines wire format (the same bytes
// GET /jobs/{id}/journal serves). Replay benchmarks (the root bench
// suite, paperbench's brokerrecover experiment) build fixtures through
// it so the format is encoded in exactly one place.
func SyntheticJournal(nTasks int, base time.Time) ([]byte, error) {
	taskIDs := make([]string, nTasks)
	for i := range taskIDs {
		taskIDs[i] = fmt.Sprintf("t%04d", i)
	}
	events := make([]Event, 0, nTasks+2)
	events = append(events, Event{
		Type: EvSubmitted, Time: base, App: "cap3", Tenant: "bench",
		TaskIDs: taskIDs, Provider: "azure", Instance: "Small",
	})
	for i, id := range taskIDs {
		events = append(events, Event{
			Type: EvCheckpoint, Time: base.Add(time.Duration(i) * time.Second),
			Done: []string{id},
		})
	}
	events = append(events, Event{
		Type: EvCompleted, Time: base.Add(time.Duration(nTasks) * time.Second),
	})
	var doc []byte
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		doc = append(doc, line...)
		doc = append(doc, '\n')
	}
	return doc, nil
}

// listJournaledJobs returns the job IDs with a journal in the bucket
// (snapshot objects are not journals and are excluded).
func listJournaledJobs(store blob.API, bucket string) ([]string, error) {
	keys, err := journal.List(store, bucket, journalJobPrefix)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(keys))
	for _, k := range keys {
		ids = append(ids, strings.TrimPrefix(k, journalJobPrefix))
	}
	sort.Strings(ids)
	return ids, nil
}

// ledgerEntry is one instance launch in the billing ledger: the fold of
// one EvScaledUp and (eventually) its EvScaledDown or the EvAdopted that
// orphaned it.
type ledgerEntry struct {
	ID        int
	Launched  time.Time
	Stopped   time.Time // zero while running
	Preempted bool
	// Provider and Instance record the type this instance launched as;
	// a mid-job re-plan leaves earlier entries on the old type, so the
	// ledger bills a mixed fleet exactly. Empty on entries journaled
	// before the fields existed — those bill at the job's current type.
	Provider string `json:",omitempty"`
	Instance string `json:",omitempty"`
	// Orphaned marks an instance that was still running when its broker
	// process died; it is billed to the adoption time.
	Orphaned bool
	// Failed marks a journaled launch whose StartInstance failed; the
	// instance never ran (zero lifetime, zero bill, not a launch).
	Failed bool
}

func (le *ledgerEntry) running() bool { return le.Stopped.IsZero() }

// jobRecord is the event-sourced core of a Job: the fold of its journal.
// Everything in it is reconstructible from the journal alone, which is
// exactly what recovery does.
type jobRecord struct {
	ID       string
	App      string
	Tenant   string
	TaskIDs  []string
	Policy   AutoscalePolicy
	Provider string
	Instance string

	PlannedInstances int
	PlanMeetsTarget  bool
	// TargetNS, PlanServiceNS, and PlanCap carry the re-planner's
	// durable inputs: the original deadline, the current expected
	// per-task service time, and the fleet headroom plans are searched
	// under. Replans counts re-plans; LastReplan starts the cooldown.
	TargetNS      int64
	PlanServiceNS int64
	PlanCap       int
	Replans       int
	LastReplan    time.Time

	State      JobState
	Started    time.Time
	FinishedAt time.Time

	Done map[string]bool
	Dead map[string]bool
	Dups int

	Ledger []*ledgerEntry
	Events []ScalingEvent

	LastUp    time.Time
	LastDown  time.Time
	Adoptions int
}

// apply folds one event into the record. It is the single transition
// function: the live broker and journal replay both go through it.
func (rec *jobRecord) apply(ev Event) error {
	switch ev.Type {
	case EvSubmitted:
		rec.App = ev.App
		rec.Tenant = ev.Tenant
		rec.TaskIDs = append([]string(nil), ev.TaskIDs...)
		if ev.Policy != nil {
			rec.Policy = *ev.Policy
		}
		rec.Provider, rec.Instance = ev.Provider, ev.Instance
		rec.TargetNS = ev.TargetNS
		rec.State = StateRunning
		rec.Started = ev.Time
		if rec.Done == nil {
			rec.Done = make(map[string]bool)
		}
		if rec.Dead == nil {
			rec.Dead = make(map[string]bool)
		}
	case EvPlanned:
		rec.PlannedInstances = ev.PlannedInstances
		rec.PlanMeetsTarget = ev.PlanMeetsTarget
		if ev.PlanServiceNS > 0 {
			rec.PlanServiceNS = ev.PlanServiceNS
		}
		if ev.PlanCap > 0 {
			rec.PlanCap = ev.PlanCap
		}
		if ev.Provider != "" {
			rec.Provider, rec.Instance = ev.Provider, ev.Instance
		}
	case EvReplanned:
		rec.Provider, rec.Instance = ev.Provider, ev.Instance
		rec.PlannedInstances = ev.PlannedInstances
		rec.PlanMeetsTarget = ev.PlanMeetsTarget
		if ev.PlanServiceNS > 0 {
			rec.PlanServiceNS = ev.PlanServiceNS
		}
		rec.Replans++
		rec.LastReplan = ev.Time
		rec.Events = append(rec.Events, ScalingEvent{
			Time: ev.Time, Action: "replan", Fleet: rec.fleetSize(), Reason: ev.Reason,
		})
	case EvScaledUp:
		rec.Ledger = append(rec.Ledger, &ledgerEntry{
			ID: ev.InstanceID, Launched: ev.Time,
			Provider: ev.Provider, Instance: ev.Instance,
		})
		rec.LastUp = ev.Time
		rec.Events = append(rec.Events, ScalingEvent{
			Time: ev.Time, Action: "launch", Delta: +1, Fleet: ev.Fleet, Reason: ev.Reason,
		})
	case EvScaledDown:
		le := rec.entry(ev.InstanceID)
		if le == nil {
			return fmt.Errorf("broker: journal scales down unknown instance %d", ev.InstanceID)
		}
		le.Stopped = ev.Time
		le.Preempted = ev.Preempted
		le.Failed = ev.LaunchFailed
		rec.LastDown = ev.Time
		action := "stop"
		if ev.Preempted {
			action = "preempt"
		}
		rec.Events = append(rec.Events, ScalingEvent{
			Time: ev.Time, Action: action, Delta: -1, Fleet: ev.Fleet, Reason: ev.Reason,
		})
	case EvCheckpoint, EvDeadLettered:
		for _, id := range ev.Done {
			if rec.Done[id] {
				rec.Dups++
			}
			rec.Done[id] = true
		}
		for _, id := range ev.Dead {
			rec.Dead[id] = true
		}
	case EvCompleted:
		rec.State = StateCompleted
		rec.FinishedAt = ev.Time
	case EvAborted:
		rec.State = StateAborted
		rec.FinishedAt = ev.Time
	case EvAdopted:
		rec.Adoptions++
		for _, le := range rec.Ledger {
			if le.running() {
				le.Stopped = ev.Time
				le.Orphaned = true
				rec.Events = append(rec.Events, ScalingEvent{
					Time: ev.Time, Action: "orphan", Delta: -1,
					Fleet: rec.fleetSize(), Reason: "broker restart orphaned instance",
				})
			}
		}
		// A fresh broker starts its cooldown clocks from the adoption.
		rec.LastUp, rec.LastDown = time.Time{}, time.Time{}
	default:
		return fmt.Errorf("broker: unknown journal event type %q", ev.Type)
	}
	return nil
}

func (rec *jobRecord) entry(id int) *ledgerEntry {
	for _, le := range rec.Ledger {
		if le.ID == id {
			return le
		}
	}
	return nil
}

func (rec *jobRecord) fleetSize() int {
	n := 0
	for _, le := range rec.Ledger {
		if le.running() {
			n++
		}
	}
	return n
}

// deadOnly counts dead-lettered tasks that never completed (completion
// wins when a task lands in both sets, so counts sum to the task total).
func (rec *jobRecord) deadOnly() int {
	n := 0
	for id := range rec.Dead {
		if !rec.Done[id] {
			n++
		}
	}
	return n
}

// settled counts tasks with a terminal status (done or dead).
func (rec *jobRecord) settled() int { return len(rec.Done) + rec.deadOnly() }

// foldJournal replays a journal into a record.
func foldJournal(jobID string, events []Event) (*jobRecord, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("broker: empty journal for %s", jobID)
	}
	if events[0].Type != EvSubmitted {
		return nil, fmt.Errorf("broker: journal for %s does not open with %s", jobID, EvSubmitted)
	}
	rec := &jobRecord{ID: jobID}
	for _, ev := range events {
		if err := rec.apply(ev); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// resolveInstanceType maps a journaled provider/name pair back to a
// catalog entry, falling back to def when the catalog no longer carries
// it (billing then uses the default's rates — stated, not silent).
func resolveInstanceType(provider, name string, catalog []cloud.InstanceType, def cloud.InstanceType) cloud.InstanceType {
	for _, it := range catalog {
		if string(it.Provider) == provider && it.Name == name {
			return it
		}
	}
	return def
}
