// Package invariant provides a runtime auditor for resource managers: an
// Observer that re-checks the scheduler's cross-cutting invariants
// at every lifecycle event and records violations instead of panicking.
// Tests attach it to full simulations so a regression in allocation
// accounting or the job state machine surfaces at the event where it
// happens, not as a mysterious end-of-run metric.
//
// Checked on every event:
//
//   - node conservation: free + running + held = total, all ≥ 0;
//   - set consistency: the manager's queue/running/holding counters match
//     a scan of its job states;
//   - clock monotonicity;
//   - start/completion sanity: starts at "now" with non-negative wait,
//     completions exactly runtime after start.
package invariant

import (
	"fmt"

	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// Auditor observes one manager and accumulates violations.
type Auditor struct {
	resmgr.NullObserver // expectations and peer decisions are not audited
	mgr                 *resmgr.Manager
	lastNow             sim.Time

	violations []string
	events     int
}

// New returns an auditor of mgr. Compose it with other observers through
// resmgr.Tee.
func New(mgr *resmgr.Manager) *Auditor { return &Auditor{mgr: mgr} }

// NewDeferred returns an auditor with no manager bound yet. coupled.Sim
// constructs its managers internally, so the Observer must exist before
// the Manager does: pass the deferred auditor in DomainConfig.Observer,
// then Bind it to Sim.Manager(name) before Run. Events observed before
// Bind are themselves recorded as violations.
func NewDeferred() *Auditor { return New(nil) }

// Bind attaches the audited manager to a deferred auditor.
func (a *Auditor) Bind(mgr *resmgr.Manager) { a.mgr = mgr }

// Violations returns every recorded violation, in order.
func (a *Auditor) Violations() []string { return a.violations }

// Events returns the number of audited events.
func (a *Auditor) Events() int { return a.events }

// fail records a violation.
func (a *Auditor) fail(now sim.Time, format string, args ...any) {
	name := "<unbound>"
	if a.mgr != nil {
		name = a.mgr.Name()
	}
	a.violations = append(a.violations,
		fmt.Sprintf("t=%d %s: %s", now, name, fmt.Sprintf(format, args...)))
}

// audit runs the cross-cutting checks.
func (a *Auditor) audit(now sim.Time) {
	a.events++
	if now < a.lastNow {
		a.fail(now, "clock moved backwards from %d", a.lastNow)
	}
	a.lastNow = now
	if a.mgr == nil {
		a.fail(now, "event observed before Bind: the deferred auditor has no manager")
		return
	}

	pool := a.mgr.Pool()
	if pool.Free() < 0 || pool.Held() < 0 || pool.Running() < 0 {
		a.fail(now, "negative pool state: %s", pool)
	}
	if pool.Free()+pool.Running()+pool.Held() != pool.Total() {
		a.fail(now, "node conservation broken: %s", pool)
	}

	var queued, running, holding int
	a.mgr.EachJob(func(j *job.Job) {
		switch j.State {
		case job.Queued:
			queued++
		case job.Running:
			running++
		case job.Holding:
			holding++
		}
		if j.YieldCount < 0 || j.HoldCount < 0 || j.HeldNodeSeconds < 0 {
			a.fail(now, "negative accounting on %s", j)
		}
	})
	c := a.mgr.Counts()
	if queued != c.Queued {
		a.fail(now, "queue count %d != %d jobs in Queued state", c.Queued, queued)
	}
	if running != c.RunningJobs {
		a.fail(now, "running count %d != %d jobs in Running state", c.RunningJobs, running)
	}
	if holding != c.Holding {
		a.fail(now, "holding count %d != %d jobs in Holding state", c.Holding, holding)
	}
}

var _ resmgr.Observer = (*Auditor)(nil)

// JobSubmitted implements resmgr.Observer.
func (a *Auditor) JobSubmitted(now sim.Time, j *job.Job) {
	a.audit(now)
	if j.State != job.Queued {
		a.fail(now, "submitted job %d in state %s", j.ID, j.State)
	}
}

// JobStarted implements resmgr.Observer.
func (a *Auditor) JobStarted(now sim.Time, j *job.Job) {
	a.audit(now)
	if j.State != job.Running {
		a.fail(now, "started job %d in state %s", j.ID, j.State)
	}
	if j.StartTime != now {
		a.fail(now, "job %d StartTime %d != event time", j.ID, j.StartTime)
	}
	if j.WaitTime() < 0 {
		a.fail(now, "job %d negative wait %d", j.ID, j.WaitTime())
	}
}

// JobCompleted implements resmgr.Observer.
func (a *Auditor) JobCompleted(now sim.Time, j *job.Job) {
	a.audit(now)
	if j.State != job.Completed {
		a.fail(now, "completed job %d in state %s", j.ID, j.State)
	}
	if j.EndTime-j.StartTime != j.Runtime {
		a.fail(now, "job %d ran %d s, declared runtime %d", j.ID, j.EndTime-j.StartTime, j.Runtime)
	}
}

// JobHeld implements resmgr.Observer.
func (a *Auditor) JobHeld(now sim.Time, j *job.Job) {
	a.audit(now)
	if j.State != job.Holding {
		a.fail(now, "held job %d in state %s", j.ID, j.State)
	}
	if a.mgr.Pool().Held() <= 0 {
		a.fail(now, "job %d held but pool shows no held nodes", j.ID)
	}
}

// JobYielded implements resmgr.Observer.
func (a *Auditor) JobYielded(now sim.Time, j *job.Job) {
	a.audit(now)
	if j.State != job.Queued {
		a.fail(now, "yielded job %d in state %s (yield must stay queued)", j.ID, j.State)
	}
	if j.YieldCount < 1 {
		a.fail(now, "yield event with count %d", j.YieldCount)
	}
}

// JobReleased implements resmgr.Observer.
func (a *Auditor) JobReleased(now sim.Time, j *job.Job, requeued bool) {
	a.audit(now)
	if j.State != job.Queued {
		a.fail(now, "released job %d in state %s", j.ID, j.State)
	}
}

// JobCancelled implements resmgr.Observer.
func (a *Auditor) JobCancelled(now sim.Time, j *job.Job) {
	a.audit(now)
	if j.State != job.Cancelled {
		a.fail(now, "cancelled job %d in state %s", j.ID, j.State)
	}
}
