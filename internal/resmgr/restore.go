// Crash-recovery support for the Manager: re-installing journaled jobs into
// a freshly constructed manager (RestoreJob) and the post-restart mate
// reconciliation handshake (ReconcileMates as callee, ReconcileWith as
// caller) that resolves pairs orphaned by the crash per the paper's fault
// tolerance rules. All of it runs on the engine's single thread, before or
// between scheduling iterations.

package resmgr

import (
	"cmp"
	"fmt"
	"slices"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// RestoreJob re-installs a journal-recovered job in its recorded state:
// queued jobs re-enter the queue, holding jobs re-acquire held allocations
// (preserving their recorded HoldStart, so the release-scan clock survives
// the restart), running jobs re-acquire run allocations with completion
// scheduled at max(now, StartTime+Runtime), and terminal jobs feed the
// counters. No Observer notifications fire — the journal already holds
// these transitions, and re-journaling them would duplicate the log the
// restore was built from. The caller replays the batch's history
// (RestoreHistory) and requests an iteration after the batch.
func (m *Manager) RestoreJob(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, dup := m.jobs.get(j.ID); dup {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	now := m.eng.Now()
	switch j.State {
	case job.Unsubmitted, job.Queued:
		// A daemon restarted with fewer nodes may hold a journaled job
		// that no longer fits; holds and runs are refused by the pool.
		if err := m.fitsPool(j); err != nil {
			return err
		}
		m.addJob(j)
		if j.State == job.Queued {
			m.acquireRec(j)
			m.enqueue(j)
		}
	case job.Holding:
		alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocHold)
		if err != nil {
			return fmt.Errorf("restore hold for job %d: %w", j.ID, err)
		}
		m.addJob(j)
		rec := m.acquireRec(j)
		rec.alloc = alloc
		setAdd(&m.holding, rec)
		m.scheduleReleaseScan()
	case job.Running:
		alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocRun)
		if err != nil {
			return fmt.Errorf("restore run for job %d: %w", j.ID, err)
		}
		m.addJob(j)
		rec := m.acquireRec(j)
		rec.alloc = alloc
		m.runReleaseAdd(rec)
		setAdd(&m.running, rec)
		end := j.StartTime + sim.Time(j.Runtime)
		if end < now {
			// The job finished while the daemon was down; complete it at
			// the first opportunity rather than rewinding the clock.
			end = now
		}
		ref, err := m.eng.AtArg(end, sim.PriorityEnd, m.completeFn, rec)
		if err != nil {
			return fmt.Errorf("restore completion for job %d: %w", j.ID, err)
		}
		rec.end = ref
	case job.Completed:
		m.addJob(j)
		m.completed++
	case job.Cancelled:
		m.addJob(j)
		m.cancelled++
	default:
		return fmt.Errorf("%w: job %d is %s", ErrBadState, j.ID, j.State)
	}
	return nil
}

// RestoreHistory feeds the completed jobs among jobs to the runtime
// estimator in the order they completed — end time, then ID — as
// completeJob fed them before the restart, so a history-keyed estimator
// (user-average) plans on as it did. Call it once, after the RestoreJob
// batch.
func (m *Manager) RestoreHistory(jobs []*job.Job) {
	var done []*job.Job
	for _, j := range jobs {
		if j.State == job.Completed {
			done = append(done, j)
		}
	}
	slices.SortFunc(done, func(a, b *job.Job) int {
		return cmp.Or(cmp.Compare(a.EndTime, b.EndTime), cmp.Compare(a.ID, b.ID))
	})
	for _, j := range done {
		m.est.Observe(j)
	}
}

// byID returns every registered job in ascending ID order.
func (m *Manager) byID() []*job.Job {
	out := slices.Clone(m.all)
	slices.SortFunc(out, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// mateViews reports this manager's side of every pair shared with the named
// domain, sorted by local job ID for deterministic exchanges.
func (m *Manager) mateViews(domain string) []cosched.MateView {
	var out []cosched.MateView
	for _, j := range m.byID() {
		for _, ref := range j.Mates {
			if ref.Domain != domain {
				continue
			}
			v := cosched.MateView{
				Local:  j.ID,
				Mate:   ref.Job,
				Status: cosched.FromJobState(j.State),
			}
			if j.State == job.Running || j.State == job.Completed {
				v.Start = j.StartTime
			}
			out = append(out, v)
		}
	}
	return out
}

// DrainViews builds the shutdown notification for each peer domain: every
// non-terminal paired job reported as StatusUnknown, so a remote holder
// waiting on one of our jobs falls back immediately (release, re-enter
// Run_Job, start normally against our dead daemon) instead of waiting out
// its release interval. Domains iterate in sorted order.
func (m *Manager) DrainViews() map[string][]cosched.MateView {
	out := make(map[string][]cosched.MateView)
	for _, j := range m.byID() {
		if j.State == job.Completed || j.State == job.Cancelled {
			continue
		}
		for _, ref := range j.Mates {
			out[ref.Domain] = append(out[ref.Domain], cosched.MateView{
				Local:  j.ID,
				Mate:   ref.Job,
				Status: cosched.StatusUnknown,
			})
		}
	}
	return out
}

// resolution is what one of our holds does about its mate's status as the
// peer reported it in a reconciliation exchange.
type resolution uint8

const (
	keepHold    resolution = iota // the mate is still coming
	releaseHold                   // the mate is lost: back to the queue
	adoptStart                    // the mate already started: start at its instant
	coStartPair                   // both hold: the caller co-starts the pair now
)

// resolve is the one rule resolving a hold against its mate's status (an
// unreported pair reads as StatusUnknown):
//   - unknown — the mate is lost; release the hold without the scan's
//     demotion, so the job re-enters Run_Job, where the unknown mate now
//     means "start normally";
//   - running or completed — start now, adopting the mate's recorded start
//     instant so the pair's log stays byte-exact;
//   - holding — only the caller resolves both-holding, so exactly one
//     resolver proposes the co-start instant; the callee keeps holding;
//   - queued or unsubmitted — keep holding, the mate is still coming.
func resolve(st cosched.MateStatus, caller bool) resolution {
	switch {
	case st == cosched.StatusUnknown:
		return releaseHold
	case st == cosched.StatusRunning || st == cosched.StatusCompleted:
		return adoptStart
	case st == cosched.StatusHolding && caller:
		return coStartPair
	}
	return keepHold
}

// resolveHolds resolves every hold of ours among views against the peer's
// views (theirs) and counts the outcomes in rep. coStartMate starts the
// mate of a both-holding pair at the proposed instant; the callee passes
// nil, and never co-starts.
func (m *Manager) resolveHolds(rep *ReconcileReport, views, theirs []cosched.MateView, coStartMate func(job.ID, sim.Time) error) error {
	type pairKey struct{ local, mate job.ID }
	reported := make(map[pairKey]cosched.MateView, len(theirs))
	for _, v := range theirs {
		// Their Local is our Mate and vice versa.
		reported[pairKey{local: v.Mate, mate: v.Local}] = v
	}
	now := m.eng.Now()
	for _, ours := range views {
		j, ok := m.jobs.get(ours.Local)
		if !ok || j.State != job.Holding {
			continue
		}
		rv := reported[pairKey{local: ours.Local, mate: ours.Mate}]
		at := rv.Start
		switch resolve(rv.Status, coStartMate != nil) {
		case keepHold:
			rep.Kept++
			continue
		case releaseHold:
			m.requeueHeld(m.recs[j.Sched], now)
			m.obs.JobReleased(now, j, true)
			m.scheduleReleaseScan()
			m.RequestIteration()
			rep.Released++
			continue
		case coStartPair:
			// Our clock is the proposed instant; the peer records it verbatim.
			if err := coStartMate(ours.Mate, now); err != nil {
				rep.Kept++ // peer unreachable mid-handshake; retry later
				continue
			}
			at = now
			rep.CoStarts++
		default:
			rep.Adopted++
		}
		if err := m.apply(j, start, at, now); err != nil {
			return fmt.Errorf("reconcile start of job %d: %w", j.ID, err)
		}
		m.RequestIteration()
	}
	return nil
}

// ReconcileMates implements cosched.Reconciler (the callee side): resolve
// our holds paired into the calling domain against the caller's views, then
// report our current views back.
//
// The exchange is idempotent: every action moves state toward agreement and
// repeats as a no-op, so peerlink may retry it safely.
func (m *Manager) ReconcileMates(from string, views []cosched.MateView) ([]cosched.MateView, error) {
	var rep ReconcileReport
	if err := m.resolveHolds(&rep, m.mateViews(from), views, nil); err != nil {
		return nil, err
	}
	return m.mateViews(from), nil
}

// ReconcileReport summarizes one caller-side reconciliation exchange.
type ReconcileReport struct {
	Peer     string // remote domain
	Sent     int    // pair views we reported
	CoStarts int    // both sides holding → co-started at one instant
	Adopted  int    // mate already running/completed → its instant adopted
	Released int    // mate lost our job → hold released to the queue
	Kept     int    // mate still coming → hold kept
}

// ReconcileWith drives the caller side of the reconciliation handshake with
// one peer: exchange views, then resolve every local hold against the
// mate's answer. Both-holding pairs co-start at this manager's current
// instant, proposed to the peer through the CoStarter extension so both
// logs record the identical start time.
func (m *Manager) ReconcileWith(domain string, p cosched.Peer) (ReconcileReport, error) {
	rep := ReconcileReport{Peer: domain}
	r, ok := p.(cosched.Reconciler)
	if !ok {
		return rep, fmt.Errorf("resmgr %s: peer %q does not support reconciliation", m.name, domain)
	}
	views := m.mateViews(domain)
	rep.Sent = len(views)
	resp, err := r.ReconcileMates(m.name, views)
	if err != nil {
		return rep, err
	}
	err = m.resolveHolds(&rep, views, resp, func(mate job.ID, at sim.Time) error {
		return startMateAt(p, mate, at)
	})
	return rep, err
}
