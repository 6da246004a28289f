package resmgr

import (
	"fmt"
	"math"
	"sort"

	"cosched/internal/backfill"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// Core selects the Manager's scheduling-iteration implementation.
//
// The incremental core (the default) maintains three things across
// iterations instead of rebuilding them inside every Iterate:
//
//   - a release timeline, kept in the planners' canonical sorted order and
//     updated on job start/completion/cancel, replacing the per-iteration
//     running-set walk + sort;
//   - the queue's order: it holds the last iteration's canonical order,
//     arrivals appended and removals shifted out, so the next iteration
//     restores the order in place in one near-linear pass
//     (policy.Orderer.OrderFitting), whatever the policy;
//   - the smallest charge any queued job needs, so an iteration facing a
//     pool in which nothing queued fits — its plan is empty by construction
//     — is elided in O(1) (see Iterate).
//
// The reference core rebuilds order and releases and plans on every
// iteration; the differential tests assert both cores produce
// byte-identical results.
type Core int

const (
	// CoreIncremental is the default: sorted timeline, order-keeping queue,
	// and no-fit elision as described on Core.
	CoreIncremental Core = iota
	// CoreReference rebuilds the queue order and release list and plans on
	// every iteration — the original implementation, kept as the
	// behavioral baseline for differential testing.
	CoreReference
)

// String returns the core's configuration name.
func (c Core) String() string {
	if c == CoreReference {
		return "reference"
	}
	return "incremental"
}

// ParseCore resolves "", "incremental", "reference".
func ParseCore(s string) (Core, bool) {
	switch s {
	case "", "incremental":
		return CoreIncremental, true
	case "reference":
		return CoreReference, true
	default:
		return CoreIncremental, false
	}
}

// ---------------------------------------------------------------------------
// Queue

// enqueue adds j, which has its record, to the end of the queue (WFP
// scores an arrival 0 and FCFS puts it last, so the end is nearly always
// its place).
func (m *Manager) enqueue(j *job.Job) {
	// A charge at or below the bound is the new minimum whether or not the
	// bound was exact: every other queued job needs at least the bound.
	if c := m.pool.ChargeFor(j.Nodes); c <= m.minCharge {
		m.minCharge, m.minExact = c, true
	}
	m.queue = append(m.queue, j)
}

// removeFromQueue deletes a queued job from the queue, preserving the
// order of the rest, which is the last iteration's and the next one
// restores from. A started job is usually near the front.
func (m *Manager) removeFromQueue(j *job.Job) {
	last := len(m.queue) - 1
	idx := 0
	for m.queue[idx] != j {
		idx++
	}
	copy(m.queue[idx:], m.queue[idx+1:])
	m.queue[last] = nil
	m.queue = m.queue[:last]
	// The bound survives the removal (the minimum can only rise); it stops
	// being exact if j may have been the job that set it.
	if m.minExact && m.pool.ChargeFor(j.Nodes) == m.minCharge {
		m.minExact = false
	}
}

// anyQueuedFits reports whether some queued job's charge fits the free
// nodes. While free is below the maintained bound the answer is no without
// looking at the queue; only when the bound has gone stale and free has
// reached it is the minimum recomputed.
func (m *Manager) anyQueuedFits() bool {
	free := m.pool.Free()
	if free < m.minCharge {
		return false
	}
	if !m.minExact {
		lo := math.MaxInt
		for _, j := range m.queue {
			lo = min(lo, m.pool.ChargeFor(j.Nodes))
		}
		m.minCharge, m.minExact = lo, true
	}
	return m.minCharge <= free
}

// ---------------------------------------------------------------------------
// Sorted release timeline

// timelineKeyAt returns the first timeline index whose entry is >= r in the
// canonical (EndBy, Nodes) order.
func (m *Manager) timelineKeyAt(r backfill.Release) int {
	return sort.Search(len(m.timeline), func(i int) bool {
		t := m.timeline[i]
		return t.EndBy > r.EndBy || (t.EndBy == r.EndBy && t.Nodes >= r.Nodes)
	})
}

// timelineInsert adds a running job's bounded release to the sorted
// timeline: O(log R) search plus one shift.
func (m *Manager) timelineInsert(r backfill.Release) {
	idx := m.timelineKeyAt(r)
	m.timeline = append(m.timeline, backfill.Release{})
	copy(m.timeline[idx+1:], m.timeline[idx:])
	m.timeline[idx] = r
}

// timelineRemove deletes one entry equal to r. Entries are plain values,
// so any member of an equal-(EndBy,Nodes) run is interchangeable; removal
// needs no job identity, only the endBy the runEntry recorded at insert.
func (m *Manager) timelineRemove(r backfill.Release) {
	idx := m.timelineKeyAt(r)
	if idx >= len(m.timeline) || m.timeline[idx] != r {
		panic(fmt.Sprintf("resmgr %s: timeline entry %+v missing — incremental maintenance out of sync", m.name, r))
	}
	copy(m.timeline[idx:], m.timeline[idx+1:])
	m.timeline = m.timeline[:len(m.timeline)-1]
}

// timelineRebuild recomputes the whole timeline from the running set,
// applying the Tsafrir-style correction: a running job that has outlived
// its estimate plans with its walltime bound instead (treating it as
// "about to finish" would collapse the shadow time and let backfill starve
// the head job). Called only when the earliest entry has gone stale
// (EndBy <= now), which with a stable estimator honoring the
// estimate <= walltime contract is rare to never — the completion event at
// StartTime+Runtime <= StartTime+Walltime removes the entry first.
func (m *Manager) timelineRebuild(now sim.Time) {
	m.timeline = m.timeline[:0]
	for _, rec := range m.running {
		if rec.endBy <= now {
			rec.endBy = rec.j.StartTime + rec.j.Walltime
		}
		m.timeline = append(m.timeline, backfill.Release{Nodes: rec.alloc.Allocated, EndBy: rec.endBy})
	}
	backfill.SortReleases(m.timeline) // the running set is unordered; canonicalize
}

// runReleaseAdd records a newly running job in the maintained timeline
// (no-op when the timeline is rebuilt per iteration instead).
func (m *Manager) runReleaseAdd(rec *schedRec) {
	rec.endBy = rec.j.StartTime + m.est.Estimate(rec.j)
	if m.maintainTL {
		m.timelineInsert(backfill.Release{Nodes: rec.alloc.Allocated, EndBy: rec.endBy})
	}
}

// runReleaseDrop removes a no-longer-running job's timeline entry.
func (m *Manager) runReleaseDrop(rec *schedRec) {
	if m.maintainTL {
		m.timelineRemove(backfill.Release{Nodes: rec.alloc.Allocated, EndBy: rec.endBy})
	}
}

// planReleases returns the release list for this iteration in canonical
// sorted order. The maintained timeline is returned by reference (zero
// copies, zero sorts at steady state); otherwise — reference core, or an
// unstable estimator whose predictions drift between iterations — the list
// is rebuilt from the running set into the reusable buffer and sorted,
// exactly the reference semantics.
func (m *Manager) planReleases(now sim.Time) []backfill.Release {
	if m.maintainTL {
		if len(m.timeline) > 0 && m.timeline[0].EndBy <= now {
			m.timelineRebuild(now)
		}
		return m.timeline
	}
	releases := m.releasesBuf[:0]
	for _, rec := range m.running {
		j := rec.j
		// Plan with the estimator's runtime; once a running job outlives
		// its prediction, correct to the walltime bound (Tsafrir-style
		// prediction correction) — treating it as "about to finish"
		// would collapse the shadow time and let backfill starve the
		// head job.
		endBy := j.StartTime + m.est.Estimate(j)
		if endBy <= now {
			endBy = j.StartTime + j.Walltime
		}
		releases = append(releases, backfill.Release{
			Nodes: rec.alloc.Allocated,
			EndBy: endBy,
		})
	}
	backfill.SortReleases(releases)
	m.releasesBuf = releases
	return releases
}
