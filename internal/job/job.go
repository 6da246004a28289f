// Package job defines the parallel-job model shared by every scheduler
// component: the job record, its lifecycle state machine, mate linkage for
// coscheduling, and per-job accounting used by the metrics layer.
package job

import (
	"fmt"

	"cosched/internal/sim"
)

// ID identifies a job within one scheduling domain.
type ID int64

// State is a job's lifecycle state.
//
// The transitions implemented by Advance are:
//
//	Unsubmitted → Queued → Running → Completed
//	              Queued → Holding → Running            (coscheduling hold)
//	              Holding → Queued                      (release preempted)
//	              Queued → Queued (yield: no state change, YieldCount++)
//	              any non-terminal → Cancelled          (withdrawal)
type State int

const (
	// Unsubmitted means the job is known (e.g. appears in a trace or as a
	// declared mate) but has not yet arrived in the queue.
	Unsubmitted State = iota
	// Queued means the job is waiting in the scheduler queue.
	Queued
	// Holding means the job occupies its assigned nodes while waiting for
	// its remote mate (the coscheduling "hold" scheme).
	Holding
	// Running means the job is executing on its assigned nodes.
	Running
	// Completed means the job finished and released its nodes.
	Completed
	// Cancelled means the job was withdrawn (qdel) before finishing.
	Cancelled
)

// String returns the lower-case state name used in logs and the wire
// protocol.
func (s State) String() string {
	switch s {
	case Unsubmitted:
		return "unsubmitted"
	case Queued:
		return "queued"
	case Holding:
		return "holding"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ParseState inverts String. Unknown names are an error — callers decode
// persisted state and must not guess.
func ParseState(s string) (State, error) {
	switch s {
	case "unsubmitted":
		return Unsubmitted, nil
	case "queued":
		return Queued, nil
	case "holding":
		return Holding, nil
	case "running":
		return Running, nil
	case "completed":
		return Completed, nil
	case "cancelled":
		return Cancelled, nil
	default:
		return Unsubmitted, fmt.Errorf("job: unknown state %q", s)
	}
}

// validNext enumerates the legal lifecycle transitions, indexed by the
// current state (an array, not a map: Advance runs on every job event).
var validNext = [...][]State{
	Unsubmitted: {Queued, Cancelled},
	Queued:      {Holding, Running, Cancelled},
	Holding:     {Running, Queued, Cancelled},
	Running:     {Completed, Cancelled},
	Completed:   {},
	Cancelled:   {},
}

// MateRef names a job in another scheduling domain that must start at the
// same instant as this one.
type MateRef struct {
	Domain string // remote domain name
	Job    ID     // job ID within that domain
}

// Job is one parallel job. Fields are grouped into the immutable request
// (set at construction), coscheduling linkage, and mutable
// scheduling/accounting state owned by the resource manager.
type Job struct {
	// Request (immutable after construction).
	ID         ID
	Name       string       // optional human-readable tag
	User       int          // submitting user (runtime-prediction history key)
	Nodes      int          // nodes requested (= nodes allocated; no moldability)
	Runtime    sim.Duration // actual runtime, consumed by the simulator at start
	Walltime   sim.Duration // user-requested wall-clock limit (≥ Runtime)
	SubmitTime sim.Time     // arrival time in the queue

	// Coscheduling linkage. Empty Mates means a regular (non-paired) job.
	// For the paper's 2-way pairing there is exactly one entry; the N-way
	// extension allows several. Mates is written only while a trace or a
	// submission is being built (the workload pairers, the SWF reader,
	// Clone, the admin interface) and never once a manager has the job, so
	// a journal entry or snapshot record may share the slice until it is
	// encoded.
	Mates []MateRef

	// Mutable scheduling state (owned by the resource manager).
	State      State
	StartTime  sim.Time // set on Queued→Running
	EndTime    sim.Time // set on Running→Completed
	HoldStart  sim.Time // set on each Queued→Holding
	YieldCount int      // times the job gave up a ready slot for its mate
	HoldCount  int      // times the job entered Holding

	// Accounting.
	HeldNodeSeconds int64 // ∑ nodes × seconds spent in Holding (service-unit loss)
	FirstReadyTime  sim.Time
	EverReady       bool // FirstReadyTime is meaningful only when true

	// Sched is the handle of the resource manager's record for this job
	// while it is queued, holding or running there; 0 otherwise. Only the
	// owning manager reads or writes it. (It sits in EverReady's padding,
	// so the struct does not grow.)
	Sched int32
}

// New constructs a queued-job request. Walltime defaults to Runtime when
// zero or negative; callers wanting user overestimates set it explicitly.
func New(id ID, nodes int, submit sim.Time, runtime, walltime sim.Duration) *Job {
	if walltime < runtime {
		walltime = runtime
	}
	return &Job{
		ID:         id,
		Nodes:      nodes,
		Runtime:    runtime,
		Walltime:   walltime,
		SubmitTime: submit,
		State:      Unsubmitted,
	}
}

// Validate checks the request fields for internal consistency.
func (j *Job) Validate() error {
	switch {
	case j.Nodes <= 0:
		return fmt.Errorf("job %d: nodes must be positive, got %d", j.ID, j.Nodes)
	case j.Runtime < 0:
		return fmt.Errorf("job %d: negative runtime %d", j.ID, j.Runtime)
	case j.Walltime < j.Runtime:
		return fmt.Errorf("job %d: walltime %d < runtime %d", j.ID, j.Walltime, j.Runtime)
	case j.SubmitTime < 0:
		return fmt.Errorf("job %d: negative submit time %d", j.ID, j.SubmitTime)
	}
	for _, m := range j.Mates {
		if m.Domain == "" {
			return fmt.Errorf("job %d: mate with empty domain", j.ID)
		}
	}
	return nil
}

// Paired reports whether the job has at least one mate.
func (j *Job) Paired() bool { return len(j.Mates) > 0 }

// Advance transitions the job to next, enforcing the lifecycle state
// machine. It returns an error (and leaves the job unchanged) on an illegal
// transition. Timestamps are the caller's responsibility; Advance only
// guards legality.
func (j *Job) Advance(next State) error {
	if j.State >= 0 && int(j.State) < len(validNext) {
		for _, ok := range validNext[j.State] {
			if next == ok {
				j.State = next
				return nil
			}
		}
	}
	return fmt.Errorf("job %d: illegal transition %s → %s", j.ID, j.State, next)
}

// MarkReady records the first instant the scheduler selected the job to
// start. The gap between this and StartTime is the coscheduling
// synchronization time for paired jobs.
func (j *Job) MarkReady(now sim.Time) {
	if !j.EverReady {
		j.EverReady = true
		j.FirstReadyTime = now
	}
}

// WaitTime returns StartTime − SubmitTime. It is only meaningful once the
// job has started.
func (j *Job) WaitTime() sim.Duration { return j.StartTime - j.SubmitTime }

// ResponseTime returns wait + runtime.
func (j *Job) ResponseTime() sim.Duration { return j.WaitTime() + j.Runtime }

// Slowdown returns response time divided by runtime. Zero-runtime jobs are
// treated as one-second jobs so the ratio stays finite (the usual
// bounded-slowdown convention's lower clamp).
func (j *Job) Slowdown() float64 {
	rt := j.Runtime
	if rt <= 0 {
		rt = 1
	}
	return float64(j.WaitTime()+rt) / float64(rt)
}

// BoundedSlowdown returns the slowdown with runtime clamped below by bound
// seconds (commonly 10s), which prevents very short jobs from dominating the
// average.
func (j *Job) BoundedSlowdown(bound sim.Duration) float64 {
	rt := j.Runtime
	if rt < bound {
		rt = bound
	}
	if rt <= 0 {
		rt = 1
	}
	sd := float64(j.WaitTime()+rt) / float64(rt)
	if sd < 1 {
		return 1
	}
	return sd
}

// SyncTime returns the extra wait imposed by coscheduling: the gap between
// the first time the scheduler was ready to start the job and the time it
// actually started. It is 0 for jobs that started the moment they were
// first ready, and 0 for jobs never marked ready.
func (j *Job) SyncTime() sim.Duration {
	if !j.EverReady {
		return 0
	}
	d := j.StartTime - j.FirstReadyTime
	if d < 0 {
		return 0
	}
	return d
}

// NodeSeconds returns nodes × runtime, the job's service demand.
func (j *Job) NodeSeconds() int64 { return int64(j.Nodes) * j.Runtime }

// String renders a compact one-line description for logs.
func (j *Job) String() string {
	return fmt.Sprintf("job %d [%s] nodes=%d submit=%d run=%d mates=%d",
		j.ID, j.State, j.Nodes, j.SubmitTime, j.Runtime, len(j.Mates))
}

// Clone returns a deep copy (mates slice included) with scheduling state
// reset to Unsubmitted. It is used to re-run the same workload under
// different configurations.
func (j *Job) Clone() *Job {
	c := *j
	c.Mates = append([]MateRef(nil), j.Mates...)
	c.State = Unsubmitted
	c.StartTime, c.EndTime, c.HoldStart = 0, 0, 0
	c.YieldCount, c.HoldCount = 0, 0
	c.HeldNodeSeconds = 0
	c.EverReady, c.FirstReadyTime = false, 0
	c.Sched = 0
	return &c
}
