package backfill

import (
	"cosched/internal/job"
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
// in the canonical sorted order (see SortReleases), which lets the
// timeline be seeded in one pass.
func PlanConservative(ordered []*job.Job, total, free int, charge ChargeFunc, releases []Release, now sim.Time, estimate EstimateFunc) []Decision {
	return PlanConservativeInto(nil, ordered, total, free, charge, releases, now, estimate)
}

// PlanConservativeInto is PlanConservative with caller-owned result
// storage, mirroring PlanInto: the returned plan is built in dst[:0] and
// aliases it. The timeline is seeded afresh from the releases on every
// call — conservative reservations depend on every queued job, so there is
// no cheap incremental form.
func PlanConservativeInto(dst []Decision, ordered []*job.Job, total, free int, charge ChargeFunc, releases []Release, now sim.Time, estimate EstimateFunc) []Decision {
	assertReleasesSorted(releases)
	if charge == nil {
		charge = func(n int) int { return n }
	}
	if estimate == nil {
		estimate = func(j *job.Job) sim.Duration { return j.Walltime }
	}

	// Model current occupancy: bounded releases end at their EndBy (at
	// least a second out); the busy nodes no release lists (coscheduling
	// holds) never free. In a consistent snapshot the usage at now is
	// total − free; one that claims more than the machine degrades to a
	// strict priority-order prefix.
	releasing, bounded := 0, 0
	for _, r := range releases {
		releasing += r.Nodes
		bounded += max(r.Nodes, 0)
	}
	held := max(total-free-releasing, 0)
	if held+bounded > total {
		return PlanInto(dst, ordered, free, charge, nil, now, false, estimate)
	}
	tl := NewTimeline(total)
	tl.at, tl.used = append(tl.at, now), append(tl.used, held+bounded)
	drop := func(at sim.Time, nodes int) {
		last := len(tl.at) - 1
		if at != tl.at[last] {
			tl.at, tl.used = append(tl.at, at), append(tl.used, tl.used[last])
			last++
		}
		tl.used[last] -= nodes
	}
	for _, r := range releases {
		if r.Nodes > 0 {
			drop(max(r.EndBy, now+1), r.Nodes)
		}
	}
	if held > 0 {
		drop(Infinity, held)
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
		if start == Infinity {
			continue
		}
		tl.Add(start, dur, c)
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
		holdSafe := tl.Fits(saturate(now, cand.dur), Infinity/4, cand.c)
		plan = append(plan, Decision{Job: cand.j, HoldSafe: holdSafe})
	}
	return plan
}
