package coupled

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// smallTraces builds a pair of small paired workloads for fast tests.
func smallTraces(seed uint64, jobsPerSide int, pairProp float64) (a, b []*job.Job) {
	specA := workload.Spec{
		Name: "a", Jobs: jobsPerSide, Span: 6 * sim.Hour,
		Sizes:     []workload.SizeClass{{Nodes: 8, Weight: 0.5}, {Nodes: 16, Weight: 0.3}, {Nodes: 32, Weight: 0.2}},
		RuntimeMu: 6.2, RuntimeSigma: 0.8,
		MinRuntime: sim.Minute, MaxRuntime: sim.Hour,
		WallFactorMin: 1.2, WallFactorMax: 2.0,
		Seed: seed,
	}
	specB := specA
	specB.Name = "b"
	specB.Sizes = []workload.SizeClass{{Nodes: 1, Weight: 0.4}, {Nodes: 2, Weight: 0.3}, {Nodes: 4, Weight: 0.3}}
	specB.Seed = seed + 1
	a, err := workload.Generate(specA)
	if err != nil {
		panic(err)
	}
	b, err = workload.Generate(specB)
	if err != nil {
		panic(err)
	}
	rng := workload.NewRNG(seed + 2)
	if _, err := workload.PairByProportion(rng, a, b, "A", "B", pairProp); err != nil {
		panic(err)
	}
	return a, b
}

func runPair(t *testing.T, schemeA, schemeB cosched.Scheme, wire bool, seed uint64) *Result {
	t.Helper()
	a, b := smallTraces(seed, 60, 0.3)
	s, err := New(Options{
		Domains: []DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(schemeA), Trace: a},
			{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(schemeB), Trace: b},
		},
		UseWireProtocol: wire,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestAllSchemeCombinationsCoschedule(t *testing.T) {
	// §V-B capability validation in miniature: every combination
	// completes every job and co-starts every pair.
	for _, sa := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
		for _, sb := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			name := sa.Short() + sb.Short()
			t.Run(name, func(t *testing.T) {
				res := runPair(t, sa, sb, false, 11)
				if res.StuckJobs != 0 {
					t.Fatalf("%s: %d stuck jobs", name, res.StuckJobs)
				}
				if res.CoStartViolations != 0 {
					t.Fatalf("%s: %d co-start violations", name, res.CoStartViolations)
				}
				if res.CompletedJobs != res.TotalJobs {
					t.Fatalf("%s: completed %d/%d", name, res.CompletedJobs, res.TotalJobs)
				}
			})
		}
	}
}

func TestWireProtocolMatchesDirectWiring(t *testing.T) {
	// The same workload must produce identical start times whether peers
	// are wired directly or through the JSON protocol over a pipe.
	direct := runPair(t, cosched.Hold, cosched.Yield, false, 23)
	wired := runPair(t, cosched.Hold, cosched.Yield, true, 23)
	if direct.CoStartViolations != 0 || wired.CoStartViolations != 0 {
		t.Fatal("co-start violations")
	}
	for name, dr := range direct.Reports {
		wr := wired.Reports[name]
		if dr.Wait.Mean != wr.Wait.Mean {
			t.Fatalf("%s: wait mean differs: direct %.3f vs wire %.3f",
				name, dr.Wait.Mean, wr.Wait.Mean)
		}
		if dr.Completed != wr.Completed {
			t.Fatalf("%s: completed differs: %d vs %d", name, dr.Completed, wr.Completed)
		}
	}
	if direct.Makespan != wired.Makespan {
		t.Fatalf("makespan differs: %d vs %d", direct.Makespan, wired.Makespan)
	}
}

func TestUnsortedTraceMatchesSorted(t *testing.T) {
	// Hand-built traces (e.g. the quickstart example) need not be in
	// submit-time order; New must accept them and produce exactly the
	// schedule of the sorted trace — same-instant jobs keep trace order,
	// matching the engine-sequence tie-break the per-job submission path
	// used. The caller's slice must not be reordered in place.
	run := func(shuffle bool) *Result {
		a, b := smallTraces(31, 60, 0.3)
		if shuffle {
			// Deterministic derangement: reverse, which breaks sortedness
			// as thoroughly as possible without touching submit times.
			for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
				a[i], a[j] = a[j], a[i]
			}
		}
		s, err := New(Options{Domains: []DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
			{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if shuffle && sortedBySubmit(a) {
			t.Fatal("New reordered the caller's trace slice in place")
		}
		return s.Run()
	}
	sorted, shuffled := run(false), run(true)
	if sorted.StuckJobs != 0 || shuffled.StuckJobs != 0 {
		t.Fatalf("stuck jobs: sorted %d, shuffled %d", sorted.StuckJobs, shuffled.StuckJobs)
	}
	if sorted.Makespan != shuffled.Makespan || sorted.Iterations != shuffled.Iterations {
		t.Fatalf("schedules diverged: makespan %d/%d iterations %d/%d",
			sorted.Makespan, shuffled.Makespan, sorted.Iterations, shuffled.Iterations)
	}
	for name := range sorted.Reports {
		if sorted.Reports[name].Wait.Mean != shuffled.Reports[name].Wait.Mean {
			t.Fatalf("%s: wait mean diverged", name)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	r1 := runPair(t, cosched.Yield, cosched.Yield, false, 7)
	r2 := runPair(t, cosched.Yield, cosched.Yield, false, 7)
	if r1.Makespan != r2.Makespan || r1.Iterations != r2.Iterations {
		t.Fatalf("replay diverged: makespan %d/%d iterations %d/%d",
			r1.Makespan, r2.Makespan, r1.Iterations, r2.Iterations)
	}
	for name := range r1.Reports {
		if r1.Reports[name].Wait.Mean != r2.Reports[name].Wait.Mean {
			t.Fatalf("%s: wait mean diverged", name)
		}
	}
}

func TestBaselineUnaffectedByDisabledCosched(t *testing.T) {
	// With coscheduling disabled the pairs are ignored; all jobs must
	// still complete (paired jobs just run independently).
	a, b := smallTraces(31, 60, 0.3)
	s, err := New(Options{
		Domains: []DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true, Trace: a},
			{Name: "B", Nodes: 8, Backfilling: true, Trace: b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 {
		t.Fatalf("%d stuck jobs in baseline", res.StuckJobs)
	}
	// Sync time must be zero everywhere: nothing ever waits for a mate.
	for name, rep := range res.Reports {
		if rep.PairedSync.Mean != 0 {
			t.Fatalf("%s: baseline sync time %.2f, want 0", name, rep.PairedSync.Mean)
		}
		if rep.Holds != 0 || rep.Yields != 0 {
			t.Fatalf("%s: baseline holds=%d yields=%d", name, rep.Holds, rep.Yields)
		}
	}
}

func TestHoldLosesServiceUnitsYieldDoesNot(t *testing.T) {
	hh := runPair(t, cosched.Hold, cosched.Hold, false, 47)
	yy := runPair(t, cosched.Yield, cosched.Yield, false, 47)
	var hhLoss, yyLoss float64
	for _, rep := range hh.Reports {
		hhLoss += rep.LostNodeHours
	}
	for _, rep := range yy.Reports {
		yyLoss += rep.LostNodeHours
	}
	if hhLoss <= 0 {
		t.Fatalf("hold-hold lost %.2f node-hours, want > 0", hhLoss)
	}
	if yyLoss != 0 {
		t.Fatalf("yield-yield lost %.2f node-hours, want 0", yyLoss)
	}
}

func TestHoldHoldDeadlockDetectedViaResult(t *testing.T) {
	// Reproduce Figure 2 through the coupled API with the enhancement
	// disabled and confirm the Result reports the deadlock.
	mk := func(release sim.Duration) *Result {
		a1 := job.New(1, 6, 0, 600, 600)
		a2 := job.New(2, 6, 10, 600, 600)
		b2 := job.New(2, 6, 0, 600, 600)
		b1 := job.New(1, 6, 10, 600, 600)
		a1.Mates = []job.MateRef{{Domain: "B", Job: 1}}
		b1.Mates = []job.MateRef{{Domain: "A", Job: 1}}
		a2.Mates = []job.MateRef{{Domain: "B", Job: 2}}
		b2.Mates = []job.MateRef{{Domain: "A", Job: 2}}
		cfg := cosched.DefaultConfig(cosched.Hold)
		cfg.ReleaseInterval = release
		s, err := New(Options{Domains: []DomainConfig{
			{Name: "A", Nodes: 6, Cosched: cfg, Trace: []*job.Job{a1, a2}},
			{Name: "B", Nodes: 6, Cosched: cfg, Trace: []*job.Job{b2, b1}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	if res := mk(0); !res.Deadlocked || res.StuckJobs != 4 {
		t.Fatalf("no-release run: deadlocked=%v stuck=%d, want true/4", res.Deadlocked, res.StuckJobs)
	}
	if res := mk(20 * sim.Minute); res.Deadlocked || res.StuckJobs != 0 {
		t.Fatalf("release run: deadlocked=%v stuck=%d, want false/0", res.Deadlocked, res.StuckJobs)
	}
}

func TestThreeDomainNWay(t *testing.T) {
	// Three domains, one 3-way group plus background jobs.
	mkTrace := func(seed uint64, n int) []*job.Job {
		spec := workload.Spec{
			Name: "t", Jobs: n, Span: 2 * sim.Hour,
			Sizes:     []workload.SizeClass{{Nodes: 4, Weight: 1}},
			RuntimeMu: 6.0, RuntimeSigma: 0.5,
			MinRuntime: sim.Minute, MaxRuntime: 30 * sim.Minute,
			WallFactorMin: 1.2, WallFactorMax: 1.5,
			Seed: seed,
		}
		tr, err := workload.Generate(spec)
		if err != nil {
			panic(err)
		}
		return tr
	}
	ta, tb, tc := mkTrace(1, 20), mkTrace(2, 20), mkTrace(3, 20)
	group := []*job.Job{ta[5], tb[10], tc[15]}
	if err := workload.LinkGroup(group, []string{"A", "B", "C"}); err != nil {
		t.Fatal(err)
	}
	cfg := cosched.DefaultConfig(cosched.Hold)
	s, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 32, Backfilling: true, Cosched: cfg, Trace: ta},
		{Name: "B", Nodes: 32, Backfilling: true, Cosched: cfg, Trace: tb},
		{Name: "C", Nodes: 32, Backfilling: true, Cosched: cfg, Trace: tc},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 {
		t.Fatalf("%d stuck jobs", res.StuckJobs)
	}
	if res.CoStartViolations != 0 {
		t.Fatalf("%d co-start violations", res.CoStartViolations)
	}
	if group[0].StartTime != group[1].StartTime || group[1].StartTime != group[2].StartTime {
		t.Fatalf("3-way group starts: %d/%d/%d",
			group[0].StartTime, group[1].StartTime, group[2].StartTime)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := New(Options{Domains: []DomainConfig{{Name: "", Nodes: 4}}}); err == nil {
		t.Fatal("empty domain name accepted")
	}
	if _, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 4}, {Name: "A", Nodes: 4},
	}}); err == nil {
		t.Fatal("duplicate domain accepted")
	}
	// A domain with no nodes is refused, not a panic in cluster.New.
	if _, err := New(Options{Domains: []DomainConfig{{Name: "A"}}}); err == nil {
		t.Fatal("domain without nodes accepted")
	}
}

func TestPartitionedIntrepidDomain(t *testing.T) {
	// A 700-node request on a partitioned pool charges 1024 nodes.
	tr := []*job.Job{job.New(1, 700, 0, 600, 600)}
	s, err := New(Options{Domains: []DomainConfig{
		{Name: "bgp", Nodes: 4096, MinPartition: 512, Backfilling: true, Trace: tr},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 {
		t.Fatal("partitioned job stuck")
	}
	rep := res.Reports["bgp"]
	if rep.Completed != 1 {
		t.Fatalf("completed = %d", rep.Completed)
	}
}

func TestHorizonCutsOffRunawaySim(t *testing.T) {
	// A tiny horizon truncates the run and reports the leftovers stuck.
	a, b := smallTraces(99, 40, 0.2)
	s, err := New(Options{
		Domains: []DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
			{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: b},
		},
		Horizon: 30 * sim.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.HitHorizon {
		t.Fatal("30-minute horizon not hit by a 6-hour workload")
	}
	if res.StuckJobs == 0 {
		t.Fatal("truncated run reported no stuck jobs")
	}
}

func TestUnknownEstimatorRejected(t *testing.T) {
	if _, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 4, Estimator: "oracle"},
	}}); err == nil {
		t.Fatal("bogus estimator accepted")
	}
}

func TestOversizeJobRejected(t *testing.T) {
	big := job.New(1, 100, 0, 10, 10)
	if _, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 10, Trace: []*job.Job{big}},
	}}); err == nil {
		t.Fatal("job larger than the pool accepted")
	}
}

// TestWireSimLeavesNoGoroutines: wire mode runs on the caller's goroutine,
// so no way of abandoning a Sim — a New that fails after the peers were
// wired, a Sim never Run, a Run — can leave one behind. (With a serving
// goroutine per directed peer behind net.Pipe, ten failed News left twenty.)
func TestWireSimLeavesNoGoroutines(t *testing.T) {
	wireSim := func(oversize bool) (*Sim, error) {
		a, b := smallTraces(5, 20, 0.3)
		if oversize {
			a = []*job.Job{job.New(1, 100, 0, 10, 10)}
		}
		return New(Options{
			Domains: []DomainConfig{
				{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
				{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
			},
			UseWireProtocol: true,
		})
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := wireSim(true); err == nil {
			t.Fatal("job larger than the pool accepted")
		}
	}
	if _, err := wireSim(false); err != nil { // built, never Run
		t.Fatal(err)
	}
	s, err := wireSim(false)
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); res.StuckJobs != 0 || res.CoStartViolations != 0 {
		t.Fatalf("wire run: %d stuck, %d co-start violations", res.StuckJobs, res.CoStartViolations)
	}
	// More, not different: an earlier test's goroutine may still be exiting.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after; a wire-mode Sim must start none", before, after)
	}
}

func TestUserAverageEstimatorRuns(t *testing.T) {
	a, b := smallTraces(123, 60, 0.2)
	s, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 64, Backfilling: true, Estimator: "user-average",
			Cosched: cosched.DefaultConfig(cosched.Yield), Trace: a},
		{Name: "B", Nodes: 8, Backfilling: true, Estimator: "user-average",
			Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 || res.CoStartViolations != 0 {
		t.Fatalf("stuck=%d viol=%d under prediction-based backfill", res.StuckJobs, res.CoStartViolations)
	}
}

func TestConservativeBackfillCoscheduling(t *testing.T) {
	// A full coupled run with conservative planning on both domains: all
	// jobs complete and every pair co-starts.
	a, b := smallTraces(77, 60, 0.25)
	s, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 64, Backfilling: true, BackfillMode: "conservative",
			Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
		{Name: "B", Nodes: 8, Backfilling: true, BackfillMode: "conservative",
			Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 || res.CoStartViolations != 0 {
		t.Fatalf("conservative cosched: stuck=%d viol=%d", res.StuckJobs, res.CoStartViolations)
	}
}

func TestUnknownBackfillModeRejected(t *testing.T) {
	if _, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 4, BackfillMode: "optimistic"},
	}}); err == nil {
		t.Fatal("bogus backfill mode accepted")
	}
}

// TestBackfillModeNeedsBackfilling: a backfill mode that would not run as
// named is refused. "none" read as unset and ran EASY; a mode with
// backfilling off was dropped.
func TestBackfillModeNeedsBackfilling(t *testing.T) {
	cases := []struct {
		backfilling bool
		mode        string
		want        string // substring of the error; "" builds
	}{
		{true, "", ""},
		{true, "easy", ""},
		{true, "conservative", ""},
		{false, "", ""},
		{true, "none", `unknown backfill mode "none"`},
		{false, "none", `unknown backfill mode "none"`},
		{false, "easy", "backfilling off"},
		{false, "conservative", "backfilling off"},
		{false, "optimistic", "unknown backfill mode"},
	}
	for _, tc := range cases {
		_, err := NewManager(sim.NewEngine(), DomainConfig{Name: "A", Nodes: 4, Backfilling: tc.backfilling, BackfillMode: tc.mode})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("backfilling=%v mode %q: %v", tc.backfilling, tc.mode, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("backfilling=%v mode %q: err = %v, want one containing %s", tc.backfilling, tc.mode, err, tc.want)
		}
	}
}

func TestChaosFaultInjectionOverWire(t *testing.T) {
	// 5% of all coordination calls fail, over the real wire protocol:
	// nothing may wedge, most pairs must still co-start, and the ones
	// that do not are exactly the fault-tolerance fallback.
	a, b := smallTraces(207, 80, 0.3)
	s, err := New(Options{
		Domains: []DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
			{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
		},
		UseWireProtocol: true,
		FaultRate:       0.05,
		FaultSeed:       99,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 {
		t.Fatalf("chaos run wedged: %d stuck", res.StuckJobs)
	}
	pairs := 0
	for _, j := range a {
		if j.Paired() {
			pairs++
		}
	}
	if res.CoStartViolations >= pairs/2 {
		t.Fatalf("%d of %d pairs failed to co-start under 5%% faults — tolerance path overused",
			res.CoStartViolations, pairs)
	}
	t.Logf("chaos: %d/%d pairs fell back to uncoordinated starts", res.CoStartViolations, pairs)
}

// TestRandomConfigsProperty sweeps random small configurations and asserts
// the core guarantees on every one: no stuck jobs, no co-start violations,
// yield sides lose nothing.
func TestRandomConfigsProperty(t *testing.T) {
	schemes := []cosched.Scheme{cosched.Hold, cosched.Yield}
	f := func(seed uint16, sa, sb uint8, prop uint8, release uint8) bool {
		a, b := smallTraces(uint64(seed)+1000, 50, float64(prop%34)/100)
		cfgA := cosched.DefaultConfig(schemes[int(sa)%2])
		cfgB := cosched.DefaultConfig(schemes[int(sb)%2])
		interval := sim.Duration(release%40+5) * sim.Minute
		cfgA.ReleaseInterval, cfgB.ReleaseInterval = interval, interval
		s, err := New(Options{Domains: []DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true, Cosched: cfgA, Trace: a},
			{Name: "B", Nodes: 8, Backfilling: true, Cosched: cfgB, Trace: b},
		}})
		if err != nil {
			return false
		}
		res := s.Run()
		if res.StuckJobs != 0 || res.CoStartViolations != 0 {
			return false
		}
		if cfgA.Scheme == cosched.Yield && res.Reports["A"].LostNodeHours != 0 {
			return false
		}
		if cfgB.Scheme == cosched.Yield && res.Reports["B"].LostNodeHours != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCoStartCheckWithoutAllocatingPerJob pins Run's co-start check at a
// constant number of bytes: on a baseline cell (coscheduling off, every
// pair's halves submitted a second apart, so every pair starts
// uncoordinated) it walks each domain's registry in place and counts,
// building neither a copy of the registry nor a list of the violations.
// A copy of 100 k job pointers alone is 792 KB more than one of 1 k.
func TestCoStartCheckWithoutAllocatingPerJob(t *testing.T) {
	cell := func(jobs int) *Sim {
		var tr [2][]*job.Job
		for i := 0; i < jobs/2; i++ {
			for k, dom := range []string{"B", "A"} {
				j := job.New(job.ID(i+1), 1, sim.Time(i+k), sim.Minute, sim.Minute)
				j.Mates = []job.MateRef{{Domain: dom, Job: j.ID}}
				tr[k] = append(tr[k], j)
			}
		}
		s, err := New(Options{Domains: []DomainConfig{
			{Name: "A", Nodes: 128, Backfilling: true, Trace: tr[0]},
			{Name: "B", Nodes: 128, Backfilling: true, Trace: tr[1]},
		}})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if res.StuckJobs != 0 || res.CoStartViolations != jobs/2 {
			t.Fatalf("%d jobs: %d stuck, %d co-start violations, want 0 and %d", jobs, res.StuckJobs, res.CoStartViolations, jobs/2)
		}
		return s
	}
	bytesPerCheck := func(s *Sim) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			s.coStartViolations()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesPerCheck(cell(1_000)), bytesPerCheck(cell(100_000))
	if large > small+1<<10 {
		t.Fatalf("the co-start check allocates %d B beside 100 k jobs, %d B beside 1 k: it grows with the registry", large, small)
	}
}
