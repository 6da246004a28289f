package backfill

import (
	"sort"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// mapTimeline is the reference the step-function Timeline is checked
// against: every commitment kept as its own interval in a map, each query
// answered by brute force over all of them. UsedAt is O(C), CanCommit O(C²)
// and EarliestStart O(C³), which is why it is a test oracle only.
type mapTimeline struct {
	total   int
	nextID  int64
	commits map[int64]commitment
}

// commitment is one committed interval of nodes.
type commitment struct {
	start sim.Time
	end   sim.Time // exclusive; Infinity for open-ended
	nodes int
}

func newMapTimeline(total int) *mapTimeline {
	return &mapTimeline{total: total, commits: make(map[int64]commitment)}
}

// UsedAt returns committed nodes at instant x.
func (t *mapTimeline) UsedAt(x sim.Time) int {
	used := 0
	for _, c := range t.commits {
		if c.start <= x && x < c.end {
			used += c.nodes
		}
	}
	return used
}

// maxUsedDuring returns the peak committed nodes over [start, end),
// evaluated at the window start and at every commitment start inside it.
func (t *mapTimeline) maxUsedDuring(start, end sim.Time) int {
	peak := t.UsedAt(start)
	for _, c := range t.commits {
		if c.start > start && c.start < end {
			peak = max(peak, t.UsedAt(c.start))
		}
	}
	return peak
}

// CanCommit reports whether nodes can run over [start, start+dur).
func (t *mapTimeline) CanCommit(start sim.Time, dur sim.Duration, nodes int) bool {
	if nodes <= 0 || nodes > t.total || dur <= 0 {
		return false
	}
	return t.maxUsedDuring(start, saturate(start, dur))+nodes <= t.total
}

// EarliestStart tries `after` and then every commitment end after it, in
// order (usage only decreases at ends).
func (t *mapTimeline) EarliestStart(after sim.Time, dur sim.Duration, nodes int) sim.Time {
	if nodes <= 0 || nodes > t.total || dur <= 0 {
		return Infinity
	}
	candidates := []sim.Time{after}
	for _, c := range t.commits {
		if c.end != Infinity && c.end > after {
			candidates = append(candidates, c.end)
		}
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a] < candidates[b] })
	for _, s := range candidates {
		if t.CanCommit(s, dur, nodes) {
			return s
		}
	}
	return Infinity
}

// Commit reserves nodes over [start, start+dur) if they fit, returning the
// commitment's ID.
func (t *mapTimeline) Commit(start sim.Time, dur sim.Duration, nodes int) (int64, bool) {
	if !t.CanCommit(start, dur, nodes) {
		return 0, false
	}
	t.nextID++
	t.commits[t.nextID] = commitment{start: start, end: saturate(start, dur), nodes: nodes}
	return t.nextID, true
}

// TruncateAt shortens a commitment to end at x, removing it when x is at
// or before its start.
func (t *mapTimeline) TruncateAt(id int64, x sim.Time) {
	c := t.commits[id]
	if x <= c.start {
		delete(t.commits, id)
		return
	}
	if x < c.end {
		c.end = x
		t.commits[id] = c
	}
}

// GC drops commitments entirely in the past (end ≤ now).
func (t *mapTimeline) GC(now sim.Time) {
	for id, c := range t.commits {
		if c.end != Infinity && c.end <= now {
			delete(t.commits, id)
		}
	}
}

// planConservativeOracle is PlanConservativeInto as it was written on the
// map timeline: each release committed one by one, the held nodes
// committed for ever, and a failed commit read as an inconsistent
// snapshot.
func planConservativeOracle(ordered []*job.Job, total, free int, charge ChargeFunc, releases []Release, now sim.Time, estimate EstimateFunc) []Decision {
	if charge == nil {
		charge = func(n int) int { return n }
	}
	if estimate == nil {
		estimate = func(j *job.Job) sim.Duration { return j.Walltime }
	}
	tl := newMapTimeline(total)
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
		if _, ok := tl.Commit(now, dur, r.Nodes); !ok {
			return Plan(ordered, free, charge, nil, now, false, estimate)
		}
	}
	if neverFree := total - free - releasing; neverFree > 0 {
		if _, ok := tl.Commit(now, Infinity-now, neverFree); !ok {
			return Plan(ordered, free, charge, nil, now, false, estimate)
		}
	}
	type candidate struct {
		j   *job.Job
		c   int
		dur sim.Duration
	}
	var starts []candidate
	for _, j := range ordered {
		c := charge(j.Nodes)
		if c > total {
			continue
		}
		dur := max(estimate(j), 1)
		start := tl.EarliestStart(now, dur, c)
		if start == Infinity {
			continue
		}
		if _, ok := tl.Commit(start, dur, c); !ok {
			continue
		}
		if start == now {
			starts = append(starts, candidate{j, c, dur})
		}
	}
	var plan []Decision
	for _, cand := range starts {
		plan = append(plan, Decision{Job: cand.j, HoldSafe: tl.CanCommit(saturate(now, cand.dur), Infinity/4, cand.c)})
	}
	return plan
}
