package journal

import (
	"sync/atomic"

	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// Recorder is the journaling resmgr.Observer: every manager transition
// becomes one appended write-ahead entry, and when the store reports a
// compaction due — at least SnapshotEvery entries, and at least the last
// snapshot's size in WAL bytes, since that snapshot — it takes a
// compacting snapshot (via the injected source), so the log and boot-time
// replay stay bounded and the bytes snapshots write stay within the bytes
// appended however large the job table grows.
//
// Append/compact failures go to onErr and the manager keeps scheduling —
// availability over durability; the operator decides whether a daemon with
// a dead disk should die.
type Recorder struct {
	store *Store
	src   func() Snapshot
	onErr func(error)

	// detached latches when the owner gives up on the journal (store
	// poisoned, disk full): every later callback is dropped instead of
	// grinding each transition through a dead WAL.
	detached atomic.Bool
}

var _ resmgr.Observer = (*Recorder)(nil)

// NewRecorder wires a recorder to a store. src produces the compacting
// snapshot (typically ManagerSnapshot under the live driver's lock — the
// recorder only calls it from observer callbacks, which already run on the
// manager's thread). onErr receives append/compact failures; nil discards
// them.
func NewRecorder(store *Store, src func() Snapshot, onErr func(error)) *Recorder {
	if onErr == nil {
		onErr = func(error) {}
	}
	return &Recorder{store: store, src: src, onErr: onErr}
}

// Detach permanently stops the recorder: later observer callbacks become
// no-ops. The daemon's degradation controller calls this when the store
// poisons, switching the domain to loud journal-less operation.
func (r *Recorder) Detach() { r.detached.Store(true) }

// append writes one entry, then compacts when the store says one is due.
func (r *Recorder) append(e *Entry) {
	if r.detached.Load() {
		return
	}
	due, err := r.store.append(e)
	if err != nil {
		r.onErr(err)
		return
	}
	if due && r.src != nil {
		if err := r.store.Compact(r.src()); err != nil {
			r.onErr(err)
		}
	}
}

// describe fills the job-description fields carried by expect/submit
// records, which must let replay rebuild a job the snapshot never saw. The
// entry shares the job's Mates: Store.Append serializes it before the
// observer callback returns.
func describe(e *Entry, j *job.Job) {
	e.Name = j.Name
	e.User = j.User
	e.Nodes = j.Nodes
	e.Runtime = j.Runtime
	e.Walltime = j.Walltime
	e.Submit = j.SubmitTime
	e.Mates = j.Mates
}

// JobExpected implements resmgr.Observer.
func (r *Recorder) JobExpected(now sim.Time, j *job.Job) {
	e := Entry{T: now, Op: OpExpect, Job: j.ID}
	describe(&e, j)
	r.append(&e)
}

// JobSubmitted implements resmgr.Observer.
func (r *Recorder) JobSubmitted(now sim.Time, j *job.Job) {
	e := Entry{T: now, Op: OpSubmit, Job: j.ID}
	describe(&e, j)
	r.append(&e)
}

// JobStarted implements resmgr.Observer. now is the agreed co-start
// instant, which for peer-resolved pairs may differ from the local clock;
// j.StartTime carries the same value.
func (r *Recorder) JobStarted(now sim.Time, j *job.Job) {
	r.append(&Entry{
		T: now, Op: OpStart, Job: j.ID,
		Start:   j.StartTime,
		Ready:   j.EverReady,
		ReadyAt: j.FirstReadyTime,
		Yields:  j.YieldCount,
		Holds:   j.HoldCount,
		HeldNS:  j.HeldNodeSeconds,
	})
}

// JobHeld implements resmgr.Observer. A second or later hold is journaled
// as OpRehold so replay and audits can tell first holds from re-holds.
func (r *Recorder) JobHeld(now sim.Time, j *job.Job) {
	op := OpHold
	if j.HoldCount > 1 {
		op = OpRehold
	}
	r.append(&Entry{
		T: now, Op: op, Job: j.ID,
		HoldStart: j.HoldStart,
		Holds:     j.HoldCount,
		Ready:     j.EverReady,
		ReadyAt:   j.FirstReadyTime,
	})
}

// JobYielded implements resmgr.Observer.
func (r *Recorder) JobYielded(now sim.Time, j *job.Job) {
	r.append(&Entry{T: now, Op: OpYield, Job: j.ID, Yields: j.YieldCount})
}

// JobReleased implements resmgr.Observer.
func (r *Recorder) JobReleased(now sim.Time, j *job.Job, requeued bool) {
	r.append(&Entry{T: now, Op: OpRelease, Job: j.ID, HeldNS: j.HeldNodeSeconds, OK: requeued})
}

// JobCompleted implements resmgr.Observer.
func (r *Recorder) JobCompleted(now sim.Time, j *job.Job) {
	r.append(&Entry{T: now, Op: OpComplete, Job: j.ID, HeldNS: j.HeldNodeSeconds})
}

// JobCancelled implements resmgr.Observer.
func (r *Recorder) JobCancelled(now sim.Time, j *job.Job) {
	r.append(&Entry{T: now, Op: OpCancel, Job: j.ID})
}

// PeerDecision implements resmgr.Observer (audit-only).
func (r *Recorder) PeerDecision(now sim.Time, method string, id job.ID, ok bool) {
	r.append(&Entry{T: now, Op: OpPeerDecision, Job: id, Method: method, OK: ok})
}
