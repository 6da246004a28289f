package workload

import (
	"reflect"
	"runtime"
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
)

func TestGenerateWithoutAllocatingPerJob(t *testing.T) {
	// The first collection starts the runtime's mark workers, which counts
	// as allocation; let it happen before measuring.
	runtime.GC()
	allocs := func(n int) float64 {
		spec := IntrepidSpec(1)
		spec.Jobs = n
		return testing.AllocsPerRun(3, func() {
			if _, err := Generate(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, big = 1_000, 100_000
	a, b := allocs(small), allocs(big)
	slabs := float64((big + traceSlab - 1) / traceSlab)
	if b-a > slabs {
		t.Fatalf("Generate allocated %.0f times at %d jobs and %.0f at %d; more than the %.0f slabs apart", a, small, b, big, slabs)
	}
	t.Logf("Generate: %.0f allocations at %d jobs, %.0f at %d", a, small, b, big)
}

// pairAllocs returns the allocations of one pair call on fresh Intrepid and
// Eureka traces of n jobs each, and fails the test unless it links pairs.
func pairAllocs(t *testing.T, n int, pair func(a, b []*job.Job) int) float64 {
	t.Helper()
	ispec, espec := IntrepidSpec(4), EurekaSpec(5)
	ispec.Jobs, espec.Jobs = n, n
	a, err := Generate(ispec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(espec)
	if err != nil {
		t.Fatal(err)
	}
	unpair := func() {
		for _, j := range a {
			j.Mates = nil
		}
		for _, j := range b {
			j.Mates = nil
		}
	}
	if unpair(); pair(a, b) == 0 {
		t.Fatalf("no pair linked at %d jobs; the measurement is vacuous", n)
	}
	return testing.AllocsPerRun(3, func() {
		unpair()
		pair(a, b)
	})
}

func pairersWithoutAllocatingPerPair(t *testing.T, name string, pair func(a, b []*job.Job) int) {
	t.Helper()
	runtime.GC()
	const small, big = 1_000, 100_000
	a, b := pairAllocs(t, small, pair), pairAllocs(t, big, pair)
	if a != b {
		t.Fatalf("%s allocated %.0f times at %d jobs a side and %.0f at %d", name, a, small, b, big)
	}
	t.Logf("%s: %.0f allocations at %d and at %d jobs a side", name, a, small, big)
}

func TestPairNearestWithoutAllocatingPerPair(t *testing.T) {
	pairersWithoutAllocatingPerPair(t, "PairNearest", func(a, b []*job.Job) int {
		return PairNearest(NewRNG(6), a, b, "A", "B", len(a)/10, sim.Hour)
	})
}

func TestPairByWindowAndPairCountWithoutAllocatingPerPair(t *testing.T) {
	pairersWithoutAllocatingPerPair(t, "PairByWindow", func(a, b []*job.Job) int {
		return PairByWindow(a, b, "A", "B", 10*sim.Minute)
	})
	pairersWithoutAllocatingPerPair(t, "PairCount", func(a, b []*job.Job) int {
		n, err := PairCount(NewRNG(7), a, b, "A", "B", len(a)/10)
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
}

// The pairers hand out first mates from one array per call; appending to
// one job's Mates must copy out rather than overwrite its neighbour's.
func TestLinkedMatesDoNotShareCapacity(t *testing.T) {
	ij, ej := pairedFixture(t)
	want := map[*job.Job][]job.MateRef{}
	for _, j := range append(append([]*job.Job(nil), ij...), ej...) {
		want[j] = append([]job.MateRef(nil), j.Mates...)
	}
	var group []*job.Job
	for _, j := range ij {
		if !j.Paired() {
			continue
		}
		j.Mates = append(j.Mates, job.MateRef{Domain: "extra", Job: 999})
		want[j] = append(want[j], job.MateRef{Domain: "extra", Job: 999})
		if group == nil {
			group = []*job.Job{j}
		}
	}
	for j, w := range want {
		if !reflect.DeepEqual(j.Mates, w) {
			t.Fatalf("job %d mates %v after appending to the paired Intrepid jobs, want %v", j.ID, j.Mates, w)
		}
	}
	if group == nil {
		t.Fatal("fixture produced no paired jobs; test is vacuous")
	}

	// An N-way group over a pair PairByWindow linked: every member keeps
	// what it had and gains every other member.
	mate := group[0].Mates[0].Job
	for _, j := range ej {
		if j.ID == mate {
			group = append(group, j)
		}
	}
	third := job.New(1, 1, 0, 60, 60)
	group = append(group, third)
	domains := []string{"intrepid", "eureka", "viz"}
	if err := LinkGroup(group, domains); err != nil {
		t.Fatal(err)
	}
	for i, j := range group {
		w := append([]job.MateRef(nil), want[j]...)
		for k, m := range group {
			if k != i {
				w = append(w, job.MateRef{Domain: domains[k], Job: m.ID})
			}
		}
		if !reflect.DeepEqual(j.Mates, w) {
			t.Fatalf("group member %d mates %v, want %v", i, j.Mates, w)
		}
	}
	for j, w := range want {
		if j != group[0] && j != group[1] && !reflect.DeepEqual(j.Mates, w) {
			t.Fatalf("LinkGroup changed job %d outside the group: %v, want %v", j.ID, j.Mates, w)
		}
	}
}
