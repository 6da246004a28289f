package backfill

import (
	"cosched/internal/job"
	"cosched/internal/profile"
	"cosched/internal/sim"
)

// PlanConservative implements conservative backfilling: *every* blocked job
// receives a reservation on a node-availability timeline in priority
// order, and a lower-priority job may start now only if doing so cannot
// delay any reservation ahead of it. Compared to EASY (Plan), conservative
// backfilling trades some throughput for strict no-starvation guarantees —
// RunAblations (cmd/experiments -exp ablations) quantifies the difference
// under this repository's workloads.
//
// total is the machine size; free the currently idle nodes; releases the
// bounded future releases of running jobs (held coscheduling allocations
// must not be listed — their nodes are modelled as occupied indefinitely),
// in the canonical sorted order (see SortReleases). The timeline commits
// below are order-independent, but the shared contract keeps the degraded
// Plan fallback and the debug-build invariant uniform across planners.
func PlanConservative(ordered []*job.Job, total, free int, charge ChargeFunc, releases []Release, now sim.Time, estimate EstimateFunc) []Decision {
	return PlanConservativeInto(nil, ordered, total, free, charge, releases, now, estimate)
}

// PlanConservativeInto is PlanConservative with caller-owned result
// storage, mirroring PlanInto: the returned plan is built in dst[:0] and
// aliases it. The availability timeline itself is still rebuilt per call —
// conservative reservations depend on every queued job, so there is no
// cheap incremental form — but the per-iteration result allocation goes
// away for managers that pass a reusable buffer.
func PlanConservativeInto(dst []Decision, ordered []*job.Job, total, free int, charge ChargeFunc, releases []Release, now sim.Time, estimate EstimateFunc) []Decision {
	assertReleasesSorted(releases)
	if charge == nil {
		charge = func(n int) int { return n }
	}
	if estimate == nil {
		estimate = func(j *job.Job) sim.Duration { return j.Walltime }
	}

	tl := profile.New(total)
	// Model current occupancy: bounded releases end at their EndBy; any
	// remaining busy nodes (coscheduling holds) never release.
	releasing := 0
	for _, r := range releases {
		releasing += r.Nodes
	}
	for _, r := range releases {
		if r.Nodes <= 0 {
			continue
		}
		dur := r.EndBy - now
		if dur < 1 {
			dur = 1
		}
		if _, err := tl.Commit(now, dur, r.Nodes); err != nil {
			// Inconsistent snapshot (more claimed than capacity):
			// degrade to a strict priority-order prefix.
			return PlanInto(dst, ordered, free, charge, nil, now, false, estimate)
		}
	}
	if neverFree := total - free - releasing; neverFree > 0 {
		if _, err := tl.Commit(now, sim.Duration(profile.Infinity-now), neverFree); err != nil {
			return PlanInto(dst, ordered, free, charge, nil, now, false, estimate)
		}
	}

	// First pass: place every job on the timeline in priority order;
	// collect the ones whose earliest start is now.
	type candidate struct {
		j   *job.Job
		c   int
		dur sim.Duration
	}
	var starts []candidate
	for _, j := range ordered {
		c := charge(j.Nodes)
		if c > total {
			continue // can never run here; skip rather than wedge the plan
		}
		dur := estimate(j)
		if dur < 1 {
			dur = 1
		}
		start := tl.EarliestStart(now, dur, c)
		if start == profile.Infinity {
			continue
		}
		if _, err := tl.Commit(start, dur, c); err != nil {
			continue
		}
		if start == now {
			starts = append(starts, candidate{j, c, dur})
		}
	}
	// Second pass, against the COMPLETE timeline (every lower-priority
	// reservation placed): a start may hold only if occupying its nodes
	// past its own window essentially forever cannot touch any
	// reservation.
	plan := dst[:0]
	if cap(plan) < len(starts) {
		plan = make([]Decision, 0, len(starts))
	}
	for _, cand := range starts {
		holdSafe := tl.CanCommit(saturate(now, cand.dur), sim.Duration(profile.Infinity/4), cand.c)
		plan = append(plan, Decision{Job: cand.j, HoldSafe: holdSafe})
	}
	return plan
}

func saturate(t sim.Time, d sim.Duration) sim.Time {
	s := t + d
	if s < t {
		return profile.Infinity
	}
	return s
}
