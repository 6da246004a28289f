package journal

import (
	"fmt"
	"sort"

	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// RecoveredState is the result of folding a snapshot and its entry tail:
// per-job final states at virtual time T, ready to be installed into a
// fresh manager.
type RecoveredState struct {
	Domain      string
	T           sim.Time // virtual time of the last applied record (or snapshot)
	Jobs        []*job.Job
	Entries     int    // entries applied on top of the snapshot
	SnapshotSeq uint64 // sequence number the snapshot covered (0 = no snapshot)
}

// Replay folds snap (nil for a snapshotless log) and entries into final job
// states. Entries at or below the snapshot's sequence number are already
// folded in and skipped. Every transition goes through the job package's
// lifecycle state machine, so an impossible history — a double start, a
// completed job re-held — is an error, never silently wrong state.
func Replay(snap *Snapshot, entries []Entry) (*RecoveredState, error) {
	st := &RecoveredState{}
	jobs := make(map[job.ID]*job.Job)
	if snap != nil {
		st.Domain = snap.Domain
		st.T = snap.T
		st.SnapshotSeq = snap.Seq
		for _, r := range snap.Jobs {
			j, err := r.Job()
			if err != nil {
				return nil, fmt.Errorf("journal: snapshot job %d: %w", r.ID, err)
			}
			if _, dup := jobs[j.ID]; dup {
				return nil, fmt.Errorf("journal: snapshot job %d duplicated", j.ID)
			}
			jobs[j.ID] = j
		}
	}
	for i := range entries {
		e := &entries[i]
		if e.Seq <= st.SnapshotSeq {
			continue
		}
		if err := applyEntry(jobs, e); err != nil {
			return nil, err
		}
		st.Entries++
		if e.T > st.T {
			st.T = e.T
		}
	}
	st.Jobs = make([]*job.Job, 0, len(jobs))
	for _, j := range jobs {
		st.Jobs = append(st.Jobs, j)
	}
	sort.Slice(st.Jobs, func(a, b int) bool { return st.Jobs[a].ID < st.Jobs[b].ID })
	return st, nil
}

// describedJob builds a job from an expect/submit record's description.
func describedJob(e *Entry) *job.Job {
	return &job.Job{
		ID:         e.Job,
		Name:       e.Name,
		User:       e.User,
		Nodes:      e.Nodes,
		Runtime:    e.Runtime,
		Walltime:   e.Walltime,
		SubmitTime: e.Submit,
		Mates:      append([]job.MateRef(nil), e.Mates...),
		State:      job.Unsubmitted,
	}
}

// applyEntry folds one record into the job table. Counters in the record
// are absolute values, so applying a record is idempotent with respect to
// them; state changes go through job.Advance for legality.
func applyEntry(jobs map[job.ID]*job.Job, e *Entry) error {
	advance := func(j *job.Job, next job.State) error {
		if err := j.Advance(next); err != nil {
			return fmt.Errorf("journal: replay seq %d (%s): %w", e.Seq, e.Op, err)
		}
		return nil
	}
	j, known := jobs[e.Job]
	switch e.Op {
	case OpExpect:
		if known {
			return fmt.Errorf("journal: replay seq %d: expect for known job %d", e.Seq, e.Job)
		}
		jobs[e.Job] = describedJob(e)
	case OpSubmit:
		if !known {
			j = describedJob(e)
			jobs[e.Job] = j
		}
		if err := advance(j, job.Queued); err != nil {
			return err
		}
	case OpStart:
		if !known {
			return fmt.Errorf("journal: replay seq %d: start for unknown job %d", e.Seq, e.Job)
		}
		if err := advance(j, job.Running); err != nil {
			return err
		}
		j.StartTime = e.Start
		j.YieldCount = e.Yields
		j.HoldCount = e.Holds
		j.HeldNodeSeconds = e.HeldNS
		j.EverReady = e.Ready
		j.FirstReadyTime = e.ReadyAt
	case OpHold, OpRehold:
		if !known {
			return fmt.Errorf("journal: replay seq %d: hold for unknown job %d", e.Seq, e.Job)
		}
		if err := advance(j, job.Holding); err != nil {
			return err
		}
		j.HoldStart = e.HoldStart
		j.HoldCount = e.Holds
		j.EverReady = e.Ready
		j.FirstReadyTime = e.ReadyAt
	case OpYield:
		if !known {
			return fmt.Errorf("journal: replay seq %d: yield for unknown job %d", e.Seq, e.Job)
		}
		j.YieldCount = e.Yields
	case OpRelease:
		if !known {
			return fmt.Errorf("journal: replay seq %d: release for unknown job %d", e.Seq, e.Job)
		}
		if err := advance(j, job.Queued); err != nil {
			return err
		}
		j.HeldNodeSeconds = e.HeldNS
	case OpComplete:
		if !known {
			return fmt.Errorf("journal: replay seq %d: complete for unknown job %d", e.Seq, e.Job)
		}
		if err := advance(j, job.Completed); err != nil {
			return err
		}
		j.EndTime = e.T
		j.HeldNodeSeconds = e.HeldNS
	case OpCancel:
		if !known {
			return fmt.Errorf("journal: replay seq %d: cancel for unknown job %d", e.Seq, e.Job)
		}
		if err := advance(j, job.Cancelled); err != nil {
			return err
		}
		j.EndTime = e.T
	case OpPeerDecision:
		// Audit-only: the state effects of the decision were journaled as
		// the start/hold transitions they caused.
	default:
		return fmt.Errorf("journal: replay seq %d: unknown op %q", e.Seq, e.Op)
	}
	return nil
}

// RestoreStats counts what Restore installed, by state.
type RestoreStats struct {
	Expected  int
	Queued    int
	Holding   int
	Running   int
	Completed int
	Cancelled int
}

// Total returns the number of restored jobs.
func (s RestoreStats) Total() int {
	return s.Expected + s.Queued + s.Holding + s.Running + s.Completed + s.Cancelled
}

// String renders the per-state counts for logs.
func (s RestoreStats) String() string {
	return fmt.Sprintf("expected=%d queued=%d holding=%d running=%d completed=%d cancelled=%d",
		s.Expected, s.Queued, s.Holding, s.Running, s.Completed, s.Cancelled)
}

// Restore installs a recovered state into a fresh manager: the engine is
// advanced to the recovery time, every job is re-installed (re-acquiring
// allocations and rescheduling completions), the completed jobs' runtimes
// are replayed to the runtime estimator, and one scheduling iteration is
// requested. The manager must be newly constructed with no jobs.
func Restore(m *resmgr.Manager, st *RecoveredState) (RestoreStats, error) {
	m.Engine().RunUntil(st.T)
	for _, j := range st.Jobs {
		if err := m.RestoreJob(j); err != nil {
			return RestoreStats{}, fmt.Errorf("journal: restore job %d: %w", j.ID, err)
		}
	}
	m.RestoreHistory(st.Jobs)
	m.RequestIteration()
	return Tally(st.Jobs), nil
}

// Tally counts jobs by state.
func Tally(jobs []*job.Job) RestoreStats {
	var stats RestoreStats
	for _, j := range jobs {
		switch j.State {
		case job.Unsubmitted:
			stats.Expected++
		case job.Queued:
			stats.Queued++
		case job.Holding:
			stats.Holding++
		case job.Running:
			stats.Running++
		case job.Completed:
			stats.Completed++
		case job.Cancelled:
			stats.Cancelled++
		}
	}
	return stats
}
