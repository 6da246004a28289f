package journal

import (
	"encoding/json"
	"sort"

	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// JobRecord is one job's full serialization inside a snapshot: the request
// fields, the lifecycle state (by name, so snapshots stay debuggable), and
// every mutable counter the manager owns.
type JobRecord struct {
	ID       job.ID        `json:"id"`
	Name     string        `json:"name,omitempty"`
	User     int           `json:"user,omitempty"`
	Nodes    int           `json:"nodes"`
	Runtime  sim.Duration  `json:"runtime"`
	Walltime sim.Duration  `json:"walltime"`
	Submit   sim.Time      `json:"submit"`
	Mates    []job.MateRef `json:"mates,omitempty"`

	State     string   `json:"state"`
	Start     sim.Time `json:"start,omitempty"`
	End       sim.Time `json:"end,omitempty"`
	HoldStart sim.Time `json:"hold_start,omitempty"`
	Yields    int      `json:"yields,omitempty"`
	Holds     int      `json:"holds,omitempty"`
	HeldNS    int64    `json:"held_ns,omitempty"`
	Ready     bool     `json:"ready,omitempty"`
	ReadyAt   sim.Time `json:"ready_at,omitempty"`
}

// RecordJob serializes a live job. The record shares the job's Mates, which
// nothing writes once the job is submitted (see job.Job.Mates).
func RecordJob(j *job.Job) JobRecord {
	return JobRecord{
		ID:       j.ID,
		Name:     j.Name,
		User:     j.User,
		Nodes:    j.Nodes,
		Runtime:  j.Runtime,
		Walltime: j.Walltime,
		Submit:   j.SubmitTime,
		Mates:    j.Mates,

		State:     j.State.String(),
		Start:     j.StartTime,
		End:       j.EndTime,
		HoldStart: j.HoldStart,
		Yields:    j.YieldCount,
		Holds:     j.HoldCount,
		HeldNS:    j.HeldNodeSeconds,
		Ready:     j.EverReady,
		ReadyAt:   j.FirstReadyTime,
	}
}

// Job rebuilds the live job. The state name must parse; everything else is
// carried verbatim — Mates as a copy, since replayed state outlives the
// snapshot and entries it was read from.
func (r JobRecord) Job() (*job.Job, error) {
	st, err := job.ParseState(r.State)
	if err != nil {
		return nil, err
	}
	return &job.Job{
		ID:         r.ID,
		Name:       r.Name,
		User:       r.User,
		Nodes:      r.Nodes,
		Runtime:    r.Runtime,
		Walltime:   r.Walltime,
		SubmitTime: r.Submit,
		Mates:      append([]job.MateRef(nil), r.Mates...),

		State:           st,
		StartTime:       r.Start,
		EndTime:         r.End,
		HoldStart:       r.HoldStart,
		YieldCount:      r.Yields,
		HoldCount:       r.Holds,
		HeldNodeSeconds: r.HeldNS,
		EverReady:       r.Ready,
		FirstReadyTime:  r.ReadyAt,
	}, nil
}

// Snapshot is a compacting checkpoint: the domain's complete job table as
// of write-ahead sequence number Seq at virtual time T. Entries with
// sequence numbers ≤ Seq are already folded in and skipped on replay. A
// snapshot taken by ManagerSnapshot shares every job's Mates with the
// manager; Store.Compact encodes it before returning, on the manager's
// thread, so nothing else ever sees that.
type Snapshot struct {
	Domain string      `json:"domain"`
	Seq    uint64      `json:"seq"`
	T      sim.Time    `json:"t"`
	Jobs   []JobRecord `json:"jobs"`
}

// marshalSnapshot returns json.Marshal(snap), written into buf when the
// hand-written encoder can.
func marshalSnapshot(buf []byte, snap *Snapshot) ([]byte, error) {
	if out, ok := appendSnapshot(buf, snap); ok {
		return out, nil
	}
	return json.Marshal(snap)
}

// decodeSnapshot decodes a snapshot file: through the strict parser, and
// through json.Unmarshal if that refuses it.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	snap := new(Snapshot)
	if parseSnapshot(data, snap) {
		return snap, nil
	}
	*snap = Snapshot{}
	err := json.Unmarshal(data, snap)
	return snap, err
}

// ManagerSnapshot captures a manager's current job table (sorted by job ID
// for stable bytes). Seq is filled in by Store.Compact, which knows the
// write-ahead position the snapshot corresponds to. Must run on the
// manager's thread (in live mode: under the driver lock).
func ManagerSnapshot(m *resmgr.Manager) Snapshot {
	jobs := m.Jobs()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	s := Snapshot{Domain: m.Name(), T: m.Engine().Now(), Jobs: make([]JobRecord, 0, len(jobs))}
	for _, j := range jobs {
		s.Jobs = append(s.Jobs, RecordJob(j))
	}
	return s
}
