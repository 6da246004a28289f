package workload

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// The pairers as they were before they drew mates from one array per call
// and searched dense submit times. They are the oracles of
// TestPairersMatchTheirOracles; parentPairCount returns want, which counts
// ranks it skipped as pairs.

func parentPairByWindow(a, b []*job.Job, domA, domB string, window sim.Duration) int {
	pairs := 0
	bi := 0
	for _, ja := range a {
		if ja.Paired() {
			continue
		}
		for bi < len(b) && (b[bi].Paired() || b[bi].SubmitTime < ja.SubmitTime-window) {
			bi++
		}
		if bi >= len(b) {
			break
		}
		jb := b[bi]
		if jb.SubmitTime > ja.SubmitTime+window {
			continue
		}
		parentLink(ja, jb, domA, domB)
		pairs++
		bi++
	}
	return pairs
}

func parentPairCount(rng *RNG, a, b []*job.Job, domA, domB string, want int) (int, error) {
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
	sa := parentBySubmit(a)
	sb := parentBySubmit(b)
	perm := rng.Perm(n)
	picked := perm[:want]
	sort.Ints(picked)
	for _, i := range picked {
		if sa[i].Paired() || sb[i].Paired() {
			continue
		}
		parentLink(sa[i], sb[i], domA, domB)
	}
	return want, nil
}

func parentPairNearest(rng *RNG, a, b []*job.Job, domA, domB string, want int, maxGap sim.Duration) int {
	if want <= 0 || len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := parentBySubmit(a)
	sb := parentBySubmit(b)
	paired := 0
	for _, ai := range rng.Perm(len(sa)) {
		if paired >= want {
			break
		}
		ja := sa[ai]
		if ja.Paired() {
			continue
		}
		bi := parentNearestUnpaired(sb, ja.SubmitTime, maxGap)
		if bi < 0 {
			continue
		}
		parentLink(ja, sb[bi], domA, domB)
		paired++
	}
	return paired
}

func parentNearestUnpaired(sorted []*job.Job, t sim.Time, maxGap sim.Duration) int {
	idx := sort.Search(len(sorted), func(i int) bool { return sorted[i].SubmitTime >= t })
	lo, hi := idx-1, idx
	for lo >= 0 || hi < len(sorted) {
		loGap, hiGap := sim.Duration(-1), sim.Duration(-1)
		for lo >= 0 {
			if g := t - sorted[lo].SubmitTime; g > maxGap {
				lo = -1
				break
			} else if sorted[lo].Paired() {
				lo--
			} else {
				loGap = t - sorted[lo].SubmitTime
				break
			}
		}
		for hi < len(sorted) {
			if g := sorted[hi].SubmitTime - t; g > maxGap {
				hi = len(sorted)
				break
			} else if sorted[hi].Paired() {
				hi++
			} else {
				hiGap = sorted[hi].SubmitTime - t
				break
			}
		}
		switch {
		case loGap >= 0 && (hiGap < 0 || loGap <= hiGap):
			return lo
		case hiGap >= 0:
			return hi
		default:
			return -1
		}
	}
	return -1
}

func parentLink(ja, jb *job.Job, domA, domB string) {
	ja.Mates = append(ja.Mates, job.MateRef{Domain: domB, Job: jb.ID})
	jb.Mates = append(jb.Mates, job.MateRef{Domain: domA, Job: ja.ID})
}

func parentBySubmit(jobs []*job.Job) []*job.Job {
	out := append([]*job.Job(nil), jobs...)
	sort.SliceStable(out, func(i, k int) bool {
		if out[i].SubmitTime != out[k].SubmitTime {
			return out[i].SubmitTime < out[k].SubmitTime
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// oracleTrace is n jobs with submit times drawn from [0, spread), so small
// spreads give many equal times. IDs are a shuffled 1..n, so jobs with
// equal times are not in ID order; the trace is sorted by submit time
// unless shuffled, and a share preMated of its jobs already has a mate in
// a third domain.
func oracleTrace(rng *RNG, n int, spread uint64, preMated float64, shuffled bool) []*job.Job {
	ids := rng.Perm(n)
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = job.New(job.ID(ids[i]+1), 1, sim.Time(rng.Uint64()%spread), 60, 60)
		if rng.Float64() < preMated {
			jobs[i].Mates = []job.MateRef{{Domain: "x", Job: job.ID(i)}}
		}
	}
	if shuffled {
		return jobs
	}
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].SubmitTime < jobs[k].SubmitTime })
	return jobs
}

func TestPairersMatchTheirOracles(t *testing.T) {
	type pairer struct {
		name   string
		sorted bool // the pairer requires inputs sorted by submit time
		run    func(rng *RNG, a, b []*job.Job, want int, gap sim.Duration) (int, error)
		oracle func(rng *RNG, a, b []*job.Job, want int, gap sim.Duration) (int, error)
	}
	pairers := []pairer{
		{"PairByWindow", true,
			func(_ *RNG, a, b []*job.Job, _ int, gap sim.Duration) (int, error) {
				return PairByWindow(a, b, "a", "b", gap), nil
			},
			func(_ *RNG, a, b []*job.Job, _ int, gap sim.Duration) (int, error) {
				return parentPairByWindow(a, b, "a", "b", gap), nil
			}},
		{"PairCount", false,
			func(rng *RNG, a, b []*job.Job, want int, _ sim.Duration) (int, error) {
				return PairCount(rng, a, b, "a", "b", want)
			},
			func(rng *RNG, a, b []*job.Job, want int, _ sim.Duration) (int, error) {
				return parentPairCount(rng, a, b, "a", "b", want)
			}},
		{"PairNearest", false,
			func(rng *RNG, a, b []*job.Job, want int, gap sim.Duration) (int, error) {
				return PairNearest(rng, a, b, "a", "b", want, gap), nil
			},
			func(rng *RNG, a, b []*job.Job, want int, gap sim.Duration) (int, error) {
				return parentPairNearest(rng, a, b, "a", "b", want, gap), nil
			}},
	}
	// Each pairer must link something, and PairCount must skip some rank,
	// or the comparison proves little.
	linkedBy := map[string]int{}
	skipped := 0
	for _, p := range pairers {
		for seed := uint64(1); seed <= 60; seed++ {
			shape := NewRNG(seed)
			na, nb := 1+int(shape.Uint64()%80), 1+int(shape.Uint64()%80)
			spread := []uint64{1, 5, 50, 5000}[seed%4]
			gap := []sim.Duration{0, 1, 3, 120}[(seed/4)%4]
			preMated := []float64{0, 0.3}[(seed/16)%2]
			shuffled := !p.sorted && seed%3 == 0
			want := int(shape.Uint64() % uint64(1+min(na, nb)))
			build := func() (a, b []*job.Job) {
				r := NewRNG(seed ^ 0x5eed)
				return oracleTrace(r, na, spread, preMated, shuffled), oracleTrace(r, nb, spread, preMated*0.5, shuffled)
			}
			a0, b0 := build()
			a1, b1 := build()
			got, err := p.run(NewRNG(seed+7), a0, b0, want, gap)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.name, seed, err)
			}
			wantN, err := p.oracle(NewRNG(seed+7), a1, b1, want, gap)
			if err != nil {
				t.Fatalf("%s seed %d oracle: %v", p.name, seed, err)
			}
			linked := 0
			for i := range a1 {
				if !reflect.DeepEqual(a0[i].Mates, a1[i].Mates) {
					t.Fatalf("%s seed %d: a-job %d mates %v, oracle %v", p.name, seed, a0[i].ID, a0[i].Mates, a1[i].Mates)
				}
				if n := len(a1[i].Mates); n > 0 && a1[i].Mates[n-1].Domain == "b" {
					linked++
				}
			}
			for i := range b1 {
				if !reflect.DeepEqual(b0[i].Mates, b1[i].Mates) {
					t.Fatalf("%s seed %d: b-job %d mates %v, oracle %v", p.name, seed, b0[i].ID, b0[i].Mates, b1[i].Mates)
				}
			}
			if p.name == "PairCount" {
				// The parent returned want even for ranks it skipped.
				if wantN != want || got != linked {
					t.Fatalf("PairCount seed %d: returned %d (oracle %d of want %d), linked %d", seed, got, wantN, want, linked)
				}
				skipped += want - linked
			} else if got != wantN {
				t.Fatalf("%s seed %d: returned %d, oracle %d", p.name, seed, got, wantN)
			}
			linkedBy[p.name] += linked
		}
	}
	for _, p := range pairers {
		if linkedBy[p.name] == 0 {
			t.Errorf("%s linked no pair in any case", p.name)
		}
	}
	if skipped == 0 {
		t.Error("PairCount skipped no selected rank in any case")
	}
	t.Logf("linked %v; PairCount skipped %d selected ranks", linkedBy, skipped)
}
