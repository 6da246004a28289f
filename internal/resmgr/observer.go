package resmgr

import (
	"cosched/internal/job"
	"cosched/internal/sim"
)

// Observer receives every notification a Manager gives about its jobs. A
// consumer that cares about only some of them embeds NullObserver; several
// consumers share one manager through a Tee.
type Observer interface {
	// JobExpected reports a job pre-registered with Expect. A crash-safe
	// daemon must journal expectations: a recovered manager that forgot an
	// expected job would treat the mate's queries as "unknown job" and
	// break the pair's co-start guarantee.
	JobExpected(now sim.Time, j *job.Job)
	JobSubmitted(now sim.Time, j *job.Job)
	JobStarted(now sim.Time, j *job.Job)
	JobCompleted(now sim.Time, j *job.Job)
	JobHeld(now sim.Time, j *job.Job)
	JobYielded(now sim.Time, j *job.Job)
	JobReleased(now sim.Time, j *job.Job, requeued bool)
	JobCancelled(now sim.Time, j *job.Job)
	// PeerDecision reports the outcome of an inbound peer start request
	// (try_start_mate/start_mate). The journal keeps these as audit
	// records: replay does not need them (the resulting start/hold
	// transitions are journaled separately), but a post-mortem of a
	// recovery needs to know which starts were remotely initiated.
	PeerDecision(now sim.Time, method string, id job.ID, ok bool)
}

// NullObserver ignores every notification.
type NullObserver struct{}

func (NullObserver) JobExpected(sim.Time, *job.Job)              {}
func (NullObserver) JobSubmitted(sim.Time, *job.Job)             {}
func (NullObserver) JobStarted(sim.Time, *job.Job)               {}
func (NullObserver) JobCompleted(sim.Time, *job.Job)             {}
func (NullObserver) JobHeld(sim.Time, *job.Job)                  {}
func (NullObserver) JobYielded(sim.Time, *job.Job)               {}
func (NullObserver) JobReleased(sim.Time, *job.Job, bool)        {}
func (NullObserver) JobCancelled(sim.Time, *job.Job)             {}
func (NullObserver) PeerDecision(sim.Time, string, job.ID, bool) {}

// Tee fans every notification out to its members, in order. No member may
// be nil.
type Tee []Observer

func (t Tee) JobExpected(now sim.Time, j *job.Job) {
	for _, o := range t {
		o.JobExpected(now, j)
	}
}

func (t Tee) JobSubmitted(now sim.Time, j *job.Job) {
	for _, o := range t {
		o.JobSubmitted(now, j)
	}
}

func (t Tee) JobStarted(now sim.Time, j *job.Job) {
	for _, o := range t {
		o.JobStarted(now, j)
	}
}

func (t Tee) JobCompleted(now sim.Time, j *job.Job) {
	for _, o := range t {
		o.JobCompleted(now, j)
	}
}

func (t Tee) JobHeld(now sim.Time, j *job.Job) {
	for _, o := range t {
		o.JobHeld(now, j)
	}
}

func (t Tee) JobYielded(now sim.Time, j *job.Job) {
	for _, o := range t {
		o.JobYielded(now, j)
	}
}

func (t Tee) JobReleased(now sim.Time, j *job.Job, requeued bool) {
	for _, o := range t {
		o.JobReleased(now, j, requeued)
	}
}

func (t Tee) JobCancelled(now sim.Time, j *job.Job) {
	for _, o := range t {
		o.JobCancelled(now, j)
	}
}

func (t Tee) PeerDecision(now sim.Time, method string, id job.ID, ok bool) {
	for _, o := range t {
		o.PeerDecision(now, method, id, ok)
	}
}
