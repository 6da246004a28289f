package workload

import (
	"fmt"
	"slices"
	"sort"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// PairByWindow links jobs across two traces whose submission times fall
// within window of each other, the paper's §V-D association rule ("we
// associated the two jobs on different machines if their submission times
// were within 2 minutes"). Each job gets at most one mate; earlier
// submissions are matched first. It returns the number of pairs formed.
//
// domA and domB are the domain names the two traces will run in; both
// traces must already be sorted by submit time.
func PairByWindow(a, b []*job.Job, domA, domB string, window sim.Duration) int {
	l := linker{pairs: min(len(a), len(b))}
	pairs := 0
	bi := 0
	for _, ja := range a {
		if ja.Paired() {
			continue
		}
		// Advance bi past b-jobs too early to match or already paired.
		for bi < len(b) && (b[bi].Paired() || b[bi].SubmitTime < ja.SubmitTime-window) {
			bi++
		}
		if bi >= len(b) {
			break
		}
		jb := b[bi]
		if jb.SubmitTime > ja.SubmitTime+window {
			continue // no b-job close enough; try next a-job
		}
		l.link(ja, jb, domA, domB)
		pairs++
		bi++
	}
	return pairs
}

// PairByProportion selects round(p·min(len(a), len(b))) ranks and pairs
// them rank-wise: both traces are viewed in submit order and the i-th
// selected a-job is linked to the equally ranked b-job, so mates arrive
// close together without perturbing either arrival process. Selection of
// which ranks participate is uniform from rng. It returns the number of
// pairs linked, which is less than the number of ranks selected when some
// of those ranks already have a mate on either side.
func PairByProportion(rng *RNG, a, b []*job.Job, domA, domB string, p float64) (int, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("workload: pair proportion %g out of [0,1]", p)
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return PairCount(rng, a, b, domA, domB, int(float64(n)*p+0.5))
}

// PairCount selects want ranks (at most the shorter trace's length)
// uniformly by rng and pairs them rank-wise, as PairByProportion does,
// skipping a rank whose job already has a mate on either side. It returns
// the number of pairs linked. It lets a caller derive the pair budget from
// a different population than the slices being paired — e.g. a
// size-filtered eligible subset of a larger trace.
func PairCount(rng *RNG, a, b []*job.Job, domA, domB string, want int) (int, error) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if want > n {
		return 0, fmt.Errorf("workload: want %d pairs from %d eligible", want, n)
	}
	if want <= 0 {
		return 0, nil
	}
	sa := bySubmit(a)
	sb := bySubmit(b)
	perm := rng.Perm(n)
	picked := perm[:want]
	sort.Ints(picked)
	l := linker{pairs: want}
	pairs := 0
	for _, i := range picked {
		if sa[i].Paired() || sb[i].Paired() {
			continue
		}
		l.link(sa[i], sb[i], domA, domB)
		pairs++
	}
	return pairs, nil
}

// PairNearest links up to want pairs, choosing a-jobs uniformly at random
// and linking each to the nearest-in-submit-time unpaired b-job within
// maxGap. Unlike rank-wise pairing it is robust to the two traces spanning
// slightly different periods: mates are always temporally close, as real
// associated submissions are. It returns the number of pairs formed, which
// may be less than want when candidates run out. a and b hold distinct
// jobs.
func PairNearest(rng *RNG, a, b []*job.Job, domA, domB string, want int, maxGap sim.Duration) int {
	if want <= 0 || len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := bySubmit(a)
	sb := bySubmit(b)
	// The search runs over dense copies of b's submit times and mate
	// state; only the b-job finally chosen is touched through its pointer.
	submits := make([]sim.Time, len(sb))
	taken := make([]bool, len(sb))
	for i, j := range sb {
		submits[i], taken[i] = j.SubmitTime, j.Paired()
	}
	l := linker{pairs: min(want, len(sa), len(sb))}
	paired := 0
	for _, ai := range rng.Perm(len(sa)) {
		if paired >= want {
			break
		}
		ja := sa[ai]
		if ja.Paired() {
			continue
		}
		bi := nearestFree(submits, taken, ja.SubmitTime, maxGap)
		if bi < 0 {
			continue
		}
		taken[bi] = true
		l.link(ja, sb[bi], domA, domB)
		paired++
	}
	return paired
}

// nearestFree returns the index of the slot not taken whose submit time is
// closest to t and within maxGap, the earlier one on a tie, or -1. submits
// is sorted.
func nearestFree(submits []sim.Time, taken []bool, t sim.Time, maxGap sim.Duration) int {
	at, _ := slices.BinarySearch(submits, t) // the first submit at or after t
	before, after := -1, -1
	for i := at - 1; i >= 0 && t-submits[i] <= maxGap; i-- {
		if !taken[i] {
			before = i
			break
		}
	}
	for i := at; i < len(submits) && submits[i]-t <= maxGap; i++ {
		if !taken[i] {
			after = i
			break
		}
	}
	if before >= 0 && (after < 0 || t-submits[before] <= submits[after]-t) {
		return before
	}
	return after
}

// Eligible returns the jobs requesting at most maxNodes, preserving order.
// The experiment harness uses it to restrict coscheduling pairs to the
// small-to-moderate jobs that realistically have an analysis counterpart
// (a full-machine capability run is not co-scheduled with a live
// visualization).
func Eligible(jobs []*job.Job, maxNodes int) []*job.Job {
	out := make([]*job.Job, 0, len(jobs))
	for _, j := range jobs {
		if j.Nodes <= maxNodes {
			out = append(out, j)
		}
	}
	return out
}

// linker records two-way mate relationships for one pairer call. A job's
// first mate comes from one flat array shared by the call, as a
// three-index slice (len == cap), so a later append to any job's Mates
// copies out instead of writing over the next job's mate; a job that
// already has mates appends as before. A kept job's Mates therefore pins
// the call's array.
type linker struct {
	pairs int // most pairs the call can link; the array holds two mates a pair
	refs  []job.MateRef
}

// link records the two-way mate relationship.
func (l *linker) link(ja, jb *job.Job, domA, domB string) {
	l.add(ja, job.MateRef{Domain: domB, Job: jb.ID})
	l.add(jb, job.MateRef{Domain: domA, Job: ja.ID})
}

func (l *linker) add(j *job.Job, m job.MateRef) {
	if len(j.Mates) > 0 {
		j.Mates = append(j.Mates, m)
		return
	}
	if l.refs == nil {
		l.refs = make([]job.MateRef, 0, 2*l.pairs)
	}
	n := len(l.refs)
	l.refs = append(l.refs, m)
	j.Mates = l.refs[n : n+1 : n+1]
}

// LinkGroup links one job per domain into an N-way co-start group (the
// paper's future-work extension): every job lists every other as a mate.
// domains[i] names the domain jobs[i] runs in. Domains must be distinct.
func LinkGroup(jobs []*job.Job, domains []string) error {
	if len(jobs) != len(domains) {
		return fmt.Errorf("workload: LinkGroup: %d jobs vs %d domains", len(jobs), len(domains))
	}
	seen := make(map[string]bool, len(domains))
	for _, d := range domains {
		if seen[d] {
			return fmt.Errorf("workload: LinkGroup: duplicate domain %q", d)
		}
		seen[d] = true
	}
	for i, j := range jobs {
		for k, m := range jobs {
			if i == k {
				continue
			}
			j.Mates = append(j.Mates, job.MateRef{Domain: domains[k], Job: m.ID})
		}
	}
	return nil
}

// PairedFraction returns the fraction of jobs in the trace that have at
// least one mate.
func PairedFraction(jobs []*job.Job) float64 {
	if len(jobs) == 0 {
		return 0
	}
	n := 0
	for _, j := range jobs {
		if j.Paired() {
			n++
		}
	}
	return float64(n) / float64(len(jobs))
}

// bySubmit returns the jobs sorted by submit time (stable on ID) without
// modifying the input slice: the input itself when it is already in that
// order, as generated traces are, or a sorted copy.
func bySubmit(jobs []*job.Job) []*job.Job {
	sorted := true
	for i := 1; i < len(jobs) && sorted; i++ {
		sorted = !submitsBefore(jobs[i], jobs[i-1])
	}
	if sorted {
		return jobs
	}
	out := append([]*job.Job(nil), jobs...)
	sort.SliceStable(out, func(i, k int) bool { return submitsBefore(out[i], out[k]) })
	return out
}

// submitsBefore orders jobs by submit time, then ID.
func submitsBefore(x, y *job.Job) bool {
	if x.SubmitTime != y.SubmitTime {
		return x.SubmitTime < y.SubmitTime
	}
	return x.ID < y.ID
}
