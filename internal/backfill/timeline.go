package backfill

import (
	"math"
	"slices"
	"sort"

	"cosched/internal/sim"
)

// Infinity marks an unbounded end: a window that reaches it never closes,
// and EarliestStart returns it when no start fits.
const Infinity sim.Time = math.MaxInt64

// Timeline is the committed nodes of one machine over future time, a step
// function stored as its breakpoints: used[i] nodes are committed over
// [at[i], at[i+1]), used[len-1] from the last breakpoint on, and none
// before the first. It is what conservative planning reserves on and the
// co-reservation baseline (internal/baseline) plans every job onto.
type Timeline struct {
	total int
	at    []sim.Time // strictly increasing
	used  []int
}

// NewTimeline returns an empty timeline over total nodes.
func NewTimeline(total int) *Timeline {
	if total <= 0 {
		panic("backfill: timeline total must be positive")
	}
	return &Timeline{total: total}
}

// Add commits nodes over [at, at+dur), saturating at Infinity; negative
// nodes remove a stretch of an earlier commitment. dur ≤ 0 is a no-op. Add
// does not check capacity: ask Fits or EarliestStart first.
func (t *Timeline) Add(at sim.Time, dur sim.Duration, nodes int) {
	if nodes == 0 || dur <= 0 {
		return
	}
	i, j := t.split(at), t.split(saturate(at, dur))
	for ; i < j; i++ {
		t.used[i] += nodes
	}
}

// Fits reports whether nodes more can run over [at, at+dur).
func (t *Timeline) Fits(at sim.Time, dur sim.Duration, nodes int) bool {
	if nodes <= 0 || nodes > t.total || dur <= 0 {
		return false
	}
	end := saturate(at, dur)
	i := t.segment(at)
	peak := 0
	if i >= 0 {
		peak = t.used[i]
	}
	for i++; i < len(t.at) && t.at[i] < end; i++ {
		peak = max(peak, t.used[i])
	}
	return peak+nodes <= t.total
}

// EarliestStart returns the earliest instant ≥ after from which nodes more
// can run for dur, or Infinity when none can. It is one forward sweep: a
// window that meets an over-full segment restarts where that segment ends,
// since every start before then still overlaps it.
func (t *Timeline) EarliestStart(after sim.Time, dur sim.Duration, nodes int) sim.Time {
	if nodes <= 0 || nodes > t.total || dur <= 0 {
		return Infinity
	}
	limit := t.total - nodes
	start, end := after, saturate(after, dur)
	for i := max(t.segment(after), 0); i < len(t.at) && t.at[i] < end; i++ {
		if t.used[i] <= limit {
			continue
		}
		if i+1 == len(t.at) {
			return Infinity // over-full for ever
		}
		start = t.at[i+1]
		end = saturate(start, dur)
	}
	return start
}

// DropBefore forgets the segments that end at or before now, bounding the
// timeline over a long simulation. Usage from now on is unchanged.
func (t *Timeline) DropBefore(now sim.Time) {
	if i := t.segment(now); i > 0 {
		t.at = append(t.at[:0], t.at[i:]...)
		t.used = append(t.used[:0], t.used[i:]...)
	}
}

// segment returns the index of the segment holding x, or -1 when x is
// before the first breakpoint.
func (t *Timeline) segment(x sim.Time) int {
	return sort.Search(len(t.at), func(k int) bool { return t.at[k] > x }) - 1
}

// split makes x a breakpoint, keeping the step function's values, and
// returns its index.
func (t *Timeline) split(x sim.Time) int {
	i := t.segment(x)
	if i >= 0 && t.at[i] == x {
		return i
	}
	u := 0
	if i >= 0 {
		u = t.used[i]
	}
	t.at = slices.Insert(t.at, i+1, x)
	t.used = slices.Insert(t.used, i+1, u)
	return i + 1
}

// saturate returns t+d, or Infinity where the sum would overflow.
func saturate(t sim.Time, d sim.Duration) sim.Time {
	if d > 0 && t > Infinity-d {
		return Infinity
	}
	return t + d
}
