// Package policy implements the queue-ordering policies used by the
// resource manager: FCFS and WFP (the utility function Cobalt ran on
// Intrepid, described in Tang et al., Cluster'09), plus short-job-first and
// largest-first for comparison.
//
// A policy assigns every queued job a score; the scheduler starts jobs in
// descending score order (ties broken by submit time, then ID, so ordering
// is total and deterministic). Policies also accept a per-job priority
// boost, which the coscheduling layer uses to escalate repeatedly-yielded
// jobs and to demote a holding job to the back of one scheduling iteration
// when it temporarily releases its nodes (the deadlock breaker).
package policy

import (
	"math"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// Policy scores queued jobs; larger scores start first.
type Policy interface {
	// Name returns the policy's configuration name ("fcfs", "wfp", ...).
	Name() string
	// Score returns the ordering key for j at virtual time now.
	Score(j *job.Job, now sim.Time) float64
}

// Boost supplies an additive score adjustment per job, layered on top of
// the base policy. The resource manager implements it to handle yield
// escalation and release-demotion without the policy knowing about
// coscheduling.
type Boost func(j *job.Job) float64

// TimeInvariant marks policies whose Score depends only on the job's
// immutable request fields — not on `now` and not on mutable scheduler
// state. For such policies the canonical queue order is a property of the
// queue's membership alone, so the resource manager's incremental core can
// keep the queue sorted across iterations instead of re-sorting it on every
// one. FCFS, SJF, and LargestFirst qualify; WFP (wait-time dependent) and
// FairShare (usage-stateful) do not and must not implement this interface.
type TimeInvariant interface {
	// TimeInvariant reports that Score(j, t1) == Score(j, t2) for all t1,
	// t2 while j's request fields are unchanged.
	TimeInvariant() bool
}

// IsTimeInvariant reports whether p declares a time-invariant score.
func IsTimeInvariant(p Policy) bool {
	ti, ok := p.(TimeInvariant)
	return ok && ti.TimeInvariant()
}

// Precedes is the canonical scheduling order shared by Orderer.Order and
// the resource manager's incrementally sorted queue: descending score,
// ties by earlier submit time, then smaller ID. Both consumers MUST use
// this exact comparator — the incremental core's determinism guarantee is
// that binary-search insertion and a full sort agree on every permutation.
func Precedes(sa float64, a *job.Job, sb float64, b *job.Job) bool {
	//simlint:allow R5 canonical comparator must be exact and total; an epsilon tie would break strict weak ordering
	if sa != sb {
		return sa > sb
	}
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// scored pairs a job with its precomputed ordering key so the sort
// comparator stays allocation- and hash-free.
type scored struct {
	j *job.Job
	s float64
}

// Orderer sorts queues for scheduling while reusing its internal score and
// output buffers across calls. Each resource manager owns one (they are
// not safe for concurrent use), which removes the two per-iteration
// allocations Order pays — significant once the experiment harness runs
// many simulations at once and every engine sorts thousand-entry queues
// each scheduling iteration.
//
// The slice returned by Order is valid only until the next Order call on
// the same Orderer; callers that retain it must copy.
type Orderer struct {
	tmp []scored
	out []*job.Job
}

// Order returns the queue sorted for scheduling: descending score (+boost),
// ties by earlier submit time, then smaller ID. The input slice is not
// modified. The result is backed by the Orderer's reusable buffer.
func (o *Orderer) Order(p Policy, q []*job.Job, now sim.Time, boost Boost) []*job.Job {
	return o.OrderFitting(p, q, now, boost, nil, 0)
}

// OrderFitting is Order over the only jobs a plan without per-job
// reservations (no backfilling, or EASY) can contain when free nodes are free:
// those whose charge fits — any other can neither start in priority order nor
// backfill — plus, if some job fits, the one among the rest that Order ranks
// first, the only one that can become the blocked head. Every job is scored
// once in queue order, as Order scores them. A nil charge fits every job.
func (o *Orderer) OrderFitting(p Policy, q []*job.Job, now sim.Time, boost Boost, charge func(nodes int) int, free int) []*job.Job {
	if cap(o.tmp) < len(q)+1 {
		// Geometric, so a queue creeping upward does not reallocate at every
		// new maximum; the +1 is the head's slot.
		n := max(len(q)+1, 2*cap(o.tmp))
		o.tmp, o.out = make([]scored, n), make([]*job.Job, n)
	}
	tmp, head := o.tmp[:0], scored{}
	for _, j := range q {
		s := p.Score(j, now)
		if boost != nil {
			s += boost(j)
		}
		if charge == nil || charge(j.Nodes) <= free {
			tmp = append(tmp, scored{j, s})
		} else if head.j == nil || Precedes(s, j, head.s, head.j) {
			head = scored{j, s}
		}
	}
	if head.j != nil && len(tmp) > 0 {
		tmp = append(tmp, head)
	}
	// The comparator is a strict total order (ID breaks all ties), so an
	// unstable sort is safe and the unique sorted permutation makes the
	// result independent of the sort algorithm. sortScored is hand-rolled
	// with the comparison inlined: this sort runs on every scheduling
	// iteration of every simulation, and the per-comparison function call
	// of the generic sorts (sort.Slice's reflection swapper first, then
	// slices.SortFunc's closure dispatch) was the sweep's largest single
	// CPU sink.
	sortScored(tmp)
	out := o.out[:len(tmp)]
	for i := range tmp {
		out[i] = tmp[i].j
		tmp[i].j = nil // drop the reference so reused buffers don't pin jobs
	}
	return out
}

// scoredLess orders scored entries by the canonical Precedes comparator.
//
//simlint:hotpath
func scoredLess(a, b *scored) bool { return Precedes(a.s, a.j, b.s, b.j) }

// sortScored sorts by scoredLess: median-of-three quicksort with an
// insertion-sort cutoff, iterating into the larger partition so stack
// depth stays logarithmic. Precedes is a strict total order (no two
// entries compare equal), which rules out the quadratic equal-keys
// pathology and makes the output the unique sorted permutation.
//
//simlint:hotpath
func sortScored(s []scored) {
	for {
		n := len(s)
		if n < 16 {
			for i := 1; i < n; i++ {
				for j := i; j > 0 && scoredLess(&s[j], &s[j-1]); j-- {
					s[j], s[j-1] = s[j-1], s[j]
				}
			}
			return
		}
		// Median-of-three pivot: order s[0], s[mid], s[n-1] in place.
		mid := n / 2
		if scoredLess(&s[mid], &s[0]) {
			s[mid], s[0] = s[0], s[mid]
		}
		if scoredLess(&s[n-1], &s[mid]) {
			s[n-1], s[mid] = s[mid], s[n-1]
			if scoredLess(&s[mid], &s[0]) {
				s[mid], s[0] = s[0], s[mid]
			}
		}
		pivot := s[mid]
		// Hoare partition around the pivot value.
		i, j := 0, n-1
		for {
			for scoredLess(&s[i], &pivot) {
				i++
			}
			for scoredLess(&pivot, &s[j]) {
				j--
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 <= n-(j+1) {
			sortScored(s[:j+1])
			s = s[j+1:]
		} else {
			sortScored(s[j+1:])
			s = s[:j+1]
		}
	}
}

// Order is the allocating convenience form of Orderer.Order: the returned
// slice is freshly allocated and safe to retain.
func Order(p Policy, q []*job.Job, now sim.Time, boost Boost) []*job.Job {
	var o Orderer
	return o.Order(p, q, now, boost)
}

// FCFS is first-come-first-served: score is the negated submit time, so the
// earliest submission wins.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Score implements Policy.
func (FCFS) Score(j *job.Job, _ sim.Time) float64 { return -float64(j.SubmitTime) }

// TimeInvariant implements TimeInvariant.
func (FCFS) TimeInvariant() bool { return true }

// WFP is the "wait-fair-priority" utility Cobalt used on Intrepid:
//
//	score = (queued_time / walltime)^3 × nodes
//
// It favors jobs that have waited long relative to their requested length
// (so priority grows with time — the property §IV-D2 of the paper relies on
// for yield-yield convergence) and favors large jobs, countering the bias
// backfilling gives small ones.
type WFP struct{}

// Name implements Policy.
func (WFP) Name() string { return "wfp" }

// Score implements Policy.
func (WFP) Score(j *job.Job, now sim.Time) float64 {
	wait := float64(now - j.SubmitTime)
	if wait < 0 {
		wait = 0
	}
	wall := float64(j.Walltime)
	if wall < 1 {
		wall = 1
	}
	r := wait / wall
	return r * r * r * float64(j.Nodes)
}

// SJF is shortest-job-first by requested walltime (classic starvation-prone
// throughput policy, included for ablations).
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "sjf" }

// Score implements Policy.
func (SJF) Score(j *job.Job, _ sim.Time) float64 { return -float64(j.Walltime) }

// TimeInvariant implements TimeInvariant.
func (SJF) TimeInvariant() bool { return true }

// LargestFirst orders by node count descending, breaking ties FCFS via
// Order's tie rules.
type LargestFirst struct{}

// Name implements Policy.
func (LargestFirst) Name() string { return "largest" }

// Score implements Policy.
func (LargestFirst) Score(j *job.Job, _ sim.Time) float64 { return float64(j.Nodes) }

// TimeInvariant implements TimeInvariant.
func (LargestFirst) TimeInvariant() bool { return true }

// ByName returns the named policy, defaulting to WFP for "" and returning
// ok=false for unknown names.
func ByName(name string) (Policy, bool) {
	switch name {
	case "", "wfp":
		return WFP{}, true
	case "fcfs":
		return FCFS{}, true
	case "sjf":
		return SJF{}, true
	case "largest":
		return LargestFirst{}, true
	case "fairshare":
		// Stateful: each call returns a fresh accumulator, so one
		// instance never leaks usage across domains or runs.
		return NewFairShare(WFP{}, 0), true
	default:
		return nil, false
	}
}

// DemotionBoost is a boost value large enough (in magnitude) to push any job
// behind every other queued job for one iteration, regardless of base score.
// WFP scores are bounded by (wait/1)^3 × nodes; with month-long waits
// (~2.6e6 s) and 40960 nodes that is ~7e19 < 1e30.
const DemotionBoost = -1e30

// EscalationBoost symmetrically guarantees front-of-queue placement.
const EscalationBoost = 1e30

// yieldBoostUnit is the additive score increment applied per recorded
// yield when per-yield priority boosting is enabled (paper §IV-E2's
// "increase the priority of the job after it yields each time").
const yieldBoostUnit = 1e12

// YieldBoost returns the additive boost for a job that has yielded n times
// with per-yield boosting enabled. It grows linearly, so repeated yielders
// climb the queue without immediately leapfrogging demoted/escalated bands.
func YieldBoost(n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Min(float64(n)*yieldBoostUnit, EscalationBoost/1e6)
}
