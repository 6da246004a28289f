package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cosched/internal/job"
	"cosched/internal/sim"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("exp mean = %g, want ≈100", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %g, want ≈1", variance)
	}
}

func TestRNGChoiceWeights(t *testing.T) {
	r := NewRNG(11)
	weights := []float64{1, 3}
	counts := [2]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("weighted choice frac = %g, want ≈0.75", frac)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestGenerateBasicShape(t *testing.T) {
	spec := IntrepidSpec(1)
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != spec.Jobs {
		t.Fatalf("generated %d jobs, want %d", len(jobs), spec.Jobs)
	}
	if !sort.SliceIsSorted(jobs, func(a, b int) bool { return jobs[a].SubmitTime < jobs[b].SubmitTime }) {
		t.Fatal("jobs not sorted by submit time")
	}
	sizes := map[int]bool{}
	for i, j := range jobs {
		if j.ID != job.ID(i+1) {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if want := fmt.Sprintf("%s-%d", spec.Name, i+1); j.Name != want {
			t.Fatalf("job %d is named %q, want %q", i, j.Name, want)
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if j.Runtime < spec.MinRuntime || j.Runtime > spec.MaxRuntime {
			t.Fatalf("job %d runtime %d outside clamp", i, j.Runtime)
		}
		if j.Walltime < j.Runtime {
			t.Fatalf("job %d walltime < runtime", i)
		}
		if j.Walltime%(5*sim.Minute) != 0 {
			t.Fatalf("job %d walltime %d not a 5-minute multiple", i, j.Walltime)
		}
		sizes[j.Nodes] = true
	}
	for _, c := range spec.Sizes {
		if !sizes[c.Nodes] {
			t.Errorf("size class %d never drawn in %d jobs", c.Nodes, spec.Jobs)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(EurekaSpec(5))
	b, _ := Generate(EurekaSpec(5))
	for i := range a {
		if a[i].SubmitTime != b[i].SubmitTime || a[i].Runtime != b[i].Runtime || a[i].Nodes != b[i].Nodes {
			t.Fatalf("generation not deterministic at job %d", i)
		}
	}
}

func TestGenerateValidatesSpec(t *testing.T) {
	bad := IntrepidSpec(1)
	bad.Jobs = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero-job spec accepted")
	}
	bad = IntrepidSpec(1)
	bad.Sizes = nil
	if _, err := Generate(bad); err == nil {
		t.Fatal("no-sizes spec accepted")
	}
	bad = IntrepidSpec(1)
	bad.WallFactorMin = 0.5
	if _, err := Generate(bad); err == nil {
		t.Fatal("walltime factor < 1 accepted")
	}
}

func TestScaleToUtilizationHitsTarget(t *testing.T) {
	for _, target := range []float64{0.25, 0.5, 0.75} {
		jobs, err := Generate(EurekaSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		factor, err := ScaleToUtilization(jobs, 100, target)
		if err != nil {
			t.Fatal(err)
		}
		if factor <= 0 {
			t.Fatalf("factor = %g", factor)
		}
		got := OfferedLoad(jobs, 100)
		if math.Abs(got-target) > 0.02 {
			t.Fatalf("target %g: offered load %g", target, got)
		}
		if !sort.SliceIsSorted(jobs, func(a, b int) bool { return jobs[a].SubmitTime < jobs[b].SubmitTime }) {
			t.Fatal("scaling broke submit order")
		}
	}
}

func TestScaleToUtilizationPreservesShape(t *testing.T) {
	// Every interarrival gap must scale by the same factor.
	jobs, _ := Generate(EurekaSpec(3))
	orig := make([]sim.Time, len(jobs))
	for i, j := range jobs {
		orig[i] = j.SubmitTime
	}
	factor, err := ScaleToUtilization(jobs, 100, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(jobs); i++ {
		wantGap := float64(orig[i]-orig[i-1]) * factor
		gotGap := float64(jobs[i].SubmitTime - jobs[i-1].SubmitTime)
		if math.Abs(gotGap-wantGap) > 1.5 { // integer rounding tolerance
			t.Fatalf("gap %d: got %g, want %g", i, gotGap, wantGap)
		}
	}
}

func TestScaleToUtilizationRejectsBadInput(t *testing.T) {
	jobs, _ := Generate(EurekaSpec(4))
	if _, err := ScaleToUtilization(jobs, 100, 0); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := ScaleToUtilization(jobs, 100, 2.0); err == nil {
		t.Fatal("target > 1.5 accepted")
	}
	// Unsorted input must be rejected.
	jobs[0].SubmitTime, jobs[1].SubmitTime = jobs[1].SubmitTime+100, jobs[0].SubmitTime
	if _, err := ScaleToUtilization(jobs, 100, 0.5); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

func TestPairByWindow(t *testing.T) {
	mk := func(id job.ID, submit sim.Time) *job.Job { return job.New(id, 4, submit, 60, 60) }
	a := []*job.Job{mk(1, 0), mk(2, 1000), mk(3, 5000)}
	b := []*job.Job{mk(1, 50), mk(2, 4000), mk(3, 5100)}
	n := PairByWindow(a, b, "A", "B", 2*sim.Minute)
	if n != 2 {
		t.Fatalf("paired %d, want 2 (0↔50 and 5000↔5100)", n)
	}
	if !a[0].Paired() || !b[0].Paired() {
		t.Fatal("first pair not linked")
	}
	if a[1].Paired() {
		t.Fatal("job at t=1000 has no partner within 2 minutes")
	}
	if a[0].Mates[0].Domain != "B" || b[0].Mates[0].Domain != "A" {
		t.Fatalf("mate domains wrong: %+v / %+v", a[0].Mates, b[0].Mates)
	}
	if a[0].Mates[0].Job != 1 || b[0].Mates[0].Job != 1 {
		t.Fatal("mate IDs wrong")
	}
}

func TestPairByProportion(t *testing.T) {
	for _, p := range []float64{0, 0.025, 0.1, 0.33, 1.0} {
		a, _ := Generate(EurekaSpec(6))
		b, _ := Generate(EurekaSpec(7))
		rng := NewRNG(99)
		n, err := PairByProportion(rng, a, b, "A", "B", p)
		if err != nil {
			t.Fatal(err)
		}
		want := int(float64(len(a))*p + 0.5)
		if n != want {
			t.Fatalf("p=%g: paired %d, want %d", p, n, want)
		}
		got := PairedFraction(a)
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("p=%g: paired fraction %g", p, got)
		}
		// Every link must be reciprocal.
		bByID := map[job.ID]*job.Job{}
		for _, j := range b {
			bByID[j.ID] = j
		}
		for _, j := range a {
			if !j.Paired() {
				continue
			}
			mate := bByID[j.Mates[0].Job]
			if mate == nil || !mate.Paired() || mate.Mates[0].Job != j.ID {
				t.Fatalf("p=%g: non-reciprocal link for job %d", p, j.ID)
			}
		}
	}
}

func TestPairByProportionRejectsBadP(t *testing.T) {
	a, _ := Generate(EurekaSpec(8))
	b, _ := Generate(EurekaSpec(9))
	if _, err := PairByProportion(NewRNG(1), a, b, "A", "B", -0.1); err == nil {
		t.Fatal("negative proportion accepted")
	}
	if _, err := PairByProportion(NewRNG(1), a, b, "A", "B", 1.1); err == nil {
		t.Fatal("proportion > 1 accepted")
	}
}

func TestLinkGroupValidation(t *testing.T) {
	j1 := job.New(1, 1, 0, 10, 10)
	j2 := job.New(2, 1, 0, 10, 10)
	if err := LinkGroup([]*job.Job{j1, j2}, []string{"A"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := LinkGroup([]*job.Job{j1, j2}, []string{"A", "A"}); err == nil {
		t.Fatal("duplicate domain accepted")
	}
	if err := LinkGroup([]*job.Job{j1, j2}, []string{"A", "B"}); err != nil {
		t.Fatal(err)
	}
	if len(j1.Mates) != 1 || j1.Mates[0].Domain != "B" {
		t.Fatalf("j1 mates = %+v", j1.Mates)
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := Generate(EurekaSpec(10))
	c := Clone(a)
	c[0].SubmitTime = 999999
	c[0].State = job.Running
	if a[0].SubmitTime == 999999 || a[0].State == job.Running {
		t.Fatal("clone shares state with original")
	}
}

// Property: OfferedLoad is invariant under Clone and scales ≈ inversely
// with the interarrival factor.
func TestOfferedLoadScalingProperty(t *testing.T) {
	f := func(seed uint16) bool {
		spec := EurekaSpec(uint64(seed) + 1)
		spec.Jobs = 200
		jobs, err := Generate(spec)
		if err != nil {
			return false
		}
		before := OfferedLoad(jobs, 100)
		if before <= 0 {
			return false
		}
		if _, err := ScaleToUtilization(jobs, 100, before/2); err != nil {
			return false
		}
		after := OfferedLoad(jobs, 100)
		return math.Abs(after-before/2) < 0.05*before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeStats(t *testing.T) {
	jobs, err := Generate(EurekaSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(jobs, 100)
	if st.Jobs != len(jobs) {
		t.Fatalf("jobs = %d", st.Jobs)
	}
	if st.Users < 2 {
		t.Fatalf("users = %d, want a population", st.Users)
	}
	if st.OfferedLoad <= 0 {
		t.Fatal("offered load not computed")
	}
	if st.Runtime.Mean <= 0 || st.Interarrival.Mean <= 0 {
		t.Fatalf("summaries empty: %+v", st)
	}
	// Walltime overestimates live in the spec's factor band (5-minute
	// rounding can push slightly past the max).
	if st.WallOverReq.Min < 1.0 || st.WallOverReq.Mean < 1.2 {
		t.Fatalf("overestimate summary = %+v", st.WallOverReq)
	}
	// Histogram covers every size class and sums to the job count.
	total := 0
	for _, b := range st.SizeHistogram {
		total += b.Count
	}
	if total != st.Jobs {
		t.Fatalf("histogram total %d != %d", total, st.Jobs)
	}
	out := st.Render("test", 100)
	for _, want := range []string{"offered load", "size histogram", "runtime:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(nil, 100)
	if st.Jobs != 0 || st.OfferedLoad != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestUserRuntimeCorrelation(t *testing.T) {
	// The generator's per-user runtime locations must make a user's jobs
	// more alike than the population: the mean within-user log-runtime
	// spread is below the overall spread.
	jobs, err := Generate(EurekaSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	byUser := map[int][]float64{}
	var all []float64
	for _, j := range jobs {
		l := math.Log(float64(j.Runtime))
		byUser[j.User] = append(byUser[j.User], l)
		all = append(all, l)
	}
	variance := func(xs []float64) float64 {
		var m, s float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		for _, x := range xs {
			s += (x - m) * (x - m)
		}
		return s / float64(len(xs))
	}
	overall := variance(all)
	var withinSum float64
	var n int
	for _, xs := range byUser {
		if len(xs) < 10 {
			continue
		}
		withinSum += variance(xs)
		n++
	}
	if n == 0 {
		t.Fatal("no user with enough jobs")
	}
	within := withinSum / float64(n)
	if within >= overall*0.8 {
		t.Fatalf("within-user runtime variance %.2f not below overall %.2f — prediction has nothing to learn", within, overall)
	}
}

func TestPairNearestRespectsGap(t *testing.T) {
	mk := func(id job.ID, submit sim.Time) *job.Job { return job.New(id, 1, submit, 60, 60) }
	a := []*job.Job{mk(1, 0), mk(2, 10000)}
	b := []*job.Job{mk(1, 50), mk(2, 99999)}
	n := PairNearest(NewRNG(1), a, b, "A", "B", 2, 120)
	if n != 1 {
		t.Fatalf("paired %d, want 1 (only the close pair)", n)
	}
	if !a[0].Paired() || a[1].Paired() {
		t.Fatal("wrong jobs paired")
	}
	if a[0].Mates[0].Job != 1 {
		t.Fatalf("paired with %d, want nearest", a[0].Mates[0].Job)
	}
}

func TestPairNearestPicksClosest(t *testing.T) {
	mk := func(id job.ID, submit sim.Time) *job.Job { return job.New(id, 1, submit, 60, 60) }
	a := []*job.Job{mk(1, 1000)}
	b := []*job.Job{mk(1, 0), mk(2, 990), mk(3, 1200)}
	if n := PairNearest(NewRNG(1), a, b, "A", "B", 1, sim.Hour); n != 1 {
		t.Fatalf("paired %d", n)
	}
	if a[0].Mates[0].Job != 2 {
		t.Fatalf("paired with %d, want 2 (closest at Δ10)", a[0].Mates[0].Job)
	}
}

func TestPairNearestSkipsAlreadyPaired(t *testing.T) {
	mk := func(id job.ID, submit sim.Time) *job.Job { return job.New(id, 1, submit, 60, 60) }
	a := []*job.Job{mk(1, 100), mk(2, 110)}
	b := []*job.Job{mk(1, 105)}
	if n := PairNearest(NewRNG(1), a, b, "A", "B", 5, sim.Hour); n != 1 {
		t.Fatalf("paired %d, want 1 (only one b-side candidate)", n)
	}
}

func TestDiurnalArrivals(t *testing.T) {
	spec := EurekaSpec(31)
	spec.Jobs = 20000
	spec.Span = 40 * sim.Day
	spec.DiurnalAmplitude = 0.8
	jobs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Count arrivals in the "day" half (06:00–18:00) vs the "night" half.
	day, night := 0, 0
	for _, j := range jobs {
		h := (j.SubmitTime % sim.Day) / sim.Hour
		if h >= 6 && h < 18 {
			day++
		} else {
			night++
		}
	}
	ratio := float64(day) / float64(night)
	if ratio < 1.5 {
		t.Fatalf("day/night arrival ratio %.2f, want clearly diurnal (>1.5)", ratio)
	}
	// Amplitude 0 must remain balanced.
	spec.DiurnalAmplitude = 0
	spec.Seed = 32
	flat, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	day, night = 0, 0
	for _, j := range flat {
		h := (j.SubmitTime % sim.Day) / sim.Hour
		if h >= 6 && h < 18 {
			day++
		} else {
			night++
		}
	}
	flatRatio := float64(day) / float64(night)
	if flatRatio < 0.9 || flatRatio > 1.1 {
		t.Fatalf("flat ratio %.2f, want ≈1", flatRatio)
	}
}

func TestDiurnalValidation(t *testing.T) {
	spec := EurekaSpec(1)
	spec.DiurnalAmplitude = 1.0
	if _, err := Generate(spec); err == nil {
		t.Fatal("amplitude 1.0 accepted")
	}
	spec.DiurnalAmplitude = -0.1
	if _, err := Generate(spec); err == nil {
		t.Fatal("negative amplitude accepted")
	}
}
