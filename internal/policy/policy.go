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

// Precedes is the canonical scheduling order: descending score, ties by
// earlier submit time, then smaller ID. Every path of Orderer.sort uses
// this exact comparator — the incremental core's determinism guarantee is
// that restoring an order and sorting outright agree on every permutation.
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

// Orderer orders queues for scheduling while reusing its key and output
// buffers across calls. Each resource manager owns one (they are not safe
// for concurrent use), which removes the per-iteration allocations ordering
// would pay — significant once the experiment harness runs many
// simulations at once and every engine orders its queue on every
// scheduling iteration.
//
// Ordering restores order rather than building it: the jobs are scored in
// the order they come in, and an insertion pass moves the few that the
// scores put out of place. A queue left in the previous iteration's order
// (OrderFitting orders in place, and the resource manager's incremental
// core stores every policy's queue that way) is ordered in one near-linear
// pass; one that is far from sorted — a restored queue, or one a demotion
// reshuffled — is detected by its descents or by the insertion pass's move
// budget and sorted outright. Either way the result is the unique Precedes
// permutation.
//
// The slice returned by Order or OrderFitting is valid only until the next
// call on the same Orderer; callers that retain it must copy.
type Orderer struct {
	keys []float64 // keys[i] is the score (+boost) of the i-th job being ordered
	out  []*job.Job
}

// Order returns the queue sorted for scheduling: descending score (+boost),
// ties by earlier submit time, then smaller ID. The input slice is not
// modified. The result is backed by the Orderer's reusable buffer.
func (o *Orderer) Order(p Policy, q []*job.Job, now sim.Time, boost Boost) []*job.Job {
	o.reserve(len(q))
	out := o.out[:len(q)]
	copy(out, q)
	o.sort(p, out, now, boost)
	return out
}

// OrderFitting orders q in place, as Order orders it, and returns the only
// jobs a plan without per-job reservations (no backfilling, or EASY) can
// contain when the pool's largest fitting request is fit nodes (see
// cluster.Pool.Fit): those of at most fit nodes — any other can neither
// start in priority order nor backfill — plus, if some job fits, the first
// of the rest, the only one that can become the blocked head. Jobs for
// which skip (nil: none) reports true are ordered with the rest but never
// returned, and they neither fit nor block. Every job is scored once in
// queue order, as Order scores them; a fit of math.MaxInt and a nil skip
// return the whole order. Leaving q ordered is what makes the next call
// cheap: between two iterations scores move little, so the queue stays
// nearly sorted (see Orderer).
func (o *Orderer) OrderFitting(p Policy, q []*job.Job, now sim.Time, boost Boost, fit int, skip func(*job.Job) bool) []*job.Job {
	o.reserve(len(q))
	o.sort(p, q, now, boost)
	// Branch-free: whether a job fits is as good as a coin toss, so every
	// job is written and the count advances past the ones that are kept.
	out := o.out[:len(q)]
	k, fits, head := 0, 0, 1 // head is 1 until a job that does not fit is kept
	for _, j := range q {
		if skip != nil && skip(j) {
			continue
		}
		out[k] = j
		f := 0
		if j.Nodes <= fit {
			f = 1
		}
		fits |= f
		k += f | head
		head &= f
	}
	return out[:k*fits] // none when no job fits: the plan is empty
}

// reserve makes the key and output buffers hold n entries. It grows them
// geometrically from minOrdererCap, so a queue creeping upward does not
// reallocate at every new maximum.
func (o *Orderer) reserve(n int) {
	if cap(o.keys) < n {
		n = max(n, 2*cap(o.keys), minOrdererCap)
		o.keys, o.out = make([]float64, n), make([]*job.Job, n)
	}
}

// minOrdererCap is the Orderer's first buffer size: a scheduling queue
// averages 7 to 11 jobs on the sweeps, so growth steps below it would be
// paid by nearly every manager.
const minOrdererCap = 16

// Thresholds of Orderer.sort: a queue longer than insertOnlyLen with more
// than one descent per sortDescentShare jobs is sorted outright, and so is
// one whose insertion pass would move jobs more than insertMoveBudget times
// its length in all (a few far-travelling jobs: one promoted from the back,
// or the band a demotion pushed there returning). Up to insertOnlyLen jobs
// sortKeyed would run an insertion sort anyway.
const (
	insertOnlyLen    = 16
	sortDescentShare = 4
	insertMoveBudget = 8
)

// sort scores q in queue order and puts it in Precedes order in place:
// with no descent (a job ahead of its predecessor) q stays as it is, a few
// are mended by insertPass, and many — or an insertion pass over its move
// budget — go to sortKeyed. The comparator is a strict total order (ID
// breaks all ties), so every path yields the same unique permutation. WFP
// without a boost is scored inline through wfpScore, the function WFP.Score
// returns, so the keys are bit-identical to the interface call's;
// everything else goes through Policy.Score.
func (o *Orderer) sort(p Policy, q []*job.Job, now sim.Time, boost Boost) {
	keys := o.keys[:len(q)]
	_, wfp := p.(WFP)
	wfp = wfp && boost == nil
	descents, first := 0, 0
	for i, j := range q {
		var s float64
		switch {
		case wfp:
			s = wfpScore(j, now)
		case boost != nil:
			s = p.Score(j, now) + boost(j)
		default:
			s = p.Score(j, now)
		}
		keys[i] = s
		if i > 0 && Precedes(s, j, keys[i-1], q[i-1]) {
			if descents == 0 {
				first = i
			}
			descents++
		}
	}
	if descents == 0 {
		return
	}
	if len(q) > insertOnlyLen && descents > len(q)/sortDescentShare || !insertPass(q, keys, first) {
		sortKeyed(q, keys)
	}
}

// insertPass sorts q, whose keys are keys and whose first from jobs are in
// order, by insertion, moving keys along, and reports whether it finished
// within its move budget. When it gives up, q and keys are still matching
// permutations.
//
//simlint:hotpath
func insertPass(q []*job.Job, keys []float64, from int) bool {
	budget := insertMoveBudget * len(q)
	for i := from; i < len(q); i++ {
		j, s := q[i], keys[i]
		if !Precedes(s, j, keys[i-1], q[i-1]) {
			continue
		}
		k := i - 1
		for k > 0 && Precedes(s, j, keys[k-1], q[k-1]) {
			k--
		}
		copy(q[k+1:i+1], q[k:i])
		copy(keys[k+1:i+1], keys[k:i])
		q[k], keys[k] = j, s
		if budget -= i - k; budget < 0 {
			return false
		}
	}
	return true
}

// keyedLess reports whether job a of q, keyed by keys, precedes job b.
//
//simlint:hotpath
func keyedLess(q []*job.Job, keys []float64, a, b int) bool {
	return Precedes(keys[a], q[a], keys[b], q[b])
}

// keyedSwap swaps jobs a and b of q and their keys.
//
//simlint:hotpath
func keyedSwap(q []*job.Job, keys []float64, a, b int) {
	q[a], q[b] = q[b], q[a]
	keys[a], keys[b] = keys[b], keys[a]
}

// sortKeyed sorts q, whose keys are keys, by Precedes, moving keys along:
// median-of-three quicksort with an insertion-sort cutoff, iterating into
// the larger partition so stack depth stays logarithmic. Precedes is a
// strict total order (no two entries compare equal), which rules out the
// quadratic equal-keys pathology and makes the output the unique sorted
// permutation. It is hand-rolled with the comparison inlined: the
// per-comparison function call of the generic sorts (sort.Slice's
// reflection swapper first, then slices.SortFunc's closure dispatch) was
// once the sweep's largest single CPU sink.
//
//simlint:hotpath
func sortKeyed(q []*job.Job, keys []float64) {
	for {
		n := len(q)
		if n < 16 {
			for i := 1; i < n; i++ {
				for j := i; j > 0 && keyedLess(q, keys, j, j-1); j-- {
					keyedSwap(q, keys, j, j-1)
				}
			}
			return
		}
		// Median-of-three pivot: order entries 0, mid and n-1 in place.
		mid := n / 2
		if keyedLess(q, keys, mid, 0) {
			keyedSwap(q, keys, mid, 0)
		}
		if keyedLess(q, keys, n-1, mid) {
			keyedSwap(q, keys, n-1, mid)
			if keyedLess(q, keys, mid, 0) {
				keyedSwap(q, keys, mid, 0)
			}
		}
		pk, pj := keys[mid], q[mid]
		// Hoare partition around the pivot value.
		i, j := 0, n-1
		for {
			for Precedes(keys[i], q[i], pk, pj) {
				i++
			}
			for Precedes(pk, pj, keys[j], q[j]) {
				j--
			}
			if i >= j {
				break
			}
			keyedSwap(q, keys, i, j)
			i++
			j--
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 <= n-(j+1) {
			sortKeyed(q[:j+1], keys[:j+1])
			q, keys = q[j+1:], keys[j+1:]
		} else {
			sortKeyed(q[j+1:], keys[j+1:])
			q, keys = q[:j+1], keys[:j+1]
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
func (WFP) Score(j *job.Job, now sim.Time) float64 { return wfpScore(j, now) }

// wfpScore is WFP's score, shared by WFP.Score and the Orderer's inline
// scoring so the two cannot differ by a bit.
func wfpScore(j *job.Job, now sim.Time) float64 {
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

// LargestFirst orders by node count descending, breaking ties FCFS via
// Order's tie rules.
type LargestFirst struct{}

// Name implements Policy.
func (LargestFirst) Name() string { return "largest" }

// Score implements Policy.
func (LargestFirst) Score(j *job.Job, _ sim.Time) float64 { return float64(j.Nodes) }

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
