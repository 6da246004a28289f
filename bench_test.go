// Package cosched's root benchmark suite regenerates every table and
// figure of Tang et al. (ICPP 2011) §V and ablates the design choices
// called out in DESIGN.md §5.
//
// Figure benches run the corresponding experiment sweep at a reduced job
// factor (the paper-scale run is `cmd/experiments -factor 1.0`) and report
// headline values via b.ReportMetric so `go test -bench` output doubles as
// a quick-look reproduction:
//
//	go test -bench=Fig -benchtime=1x
//	go test -bench=Ablation -benchtime=1x
package cosched

import (
	"fmt"
	"sync"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/experiments"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// benchFactor scales the paper's 9,219-job month down for bench runs.
const benchFactor = 0.15

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig(1, benchFactor)
	cfg.Reps = 1
	return cfg
}

// sweepMemo memoizes an experiment sweep across the benches that share it.
// Access is mutex-guarded so `go test -race -bench` stays clean; the zero
// value is ready to use.
type sweepMemo[T any] struct {
	mu  sync.Mutex
	val *T
}

func (m *sweepMemo[T]) get(b *testing.B, run func() (*T, error)) *T {
	b.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.val == nil {
		v, err := run()
		if err != nil {
			b.Fatal(err)
		}
		m.val = v
	}
	return m.val
}

// reset drops the memoized sweep so the next get re-runs it (used by the
// benches that time the sweep itself rather than the table rendering).
func (m *sweepMemo[T]) reset() {
	m.mu.Lock()
	m.val = nil
	m.mu.Unlock()
}

// loadSweepMemo memoizes the Figures 3–6 sweep across the benches that
// share it; propSweepMemo does the same for Figures 7–10.
var (
	loadSweepMemo sweepMemo[experiments.LoadSweep]
	propSweepMemo sweepMemo[experiments.ProportionSweep]
)

func benchLoadSweep(b *testing.B) *experiments.LoadSweep {
	b.Helper()
	return loadSweepMemo.get(b, func() (*experiments.LoadSweep, error) {
		return experiments.RunLoadSweep(benchConfig())
	})
}

func benchPropSweep(b *testing.B) *experiments.ProportionSweep {
	b.Helper()
	return propSweepMemo.get(b, func() (*experiments.ProportionSweep, error) {
		return experiments.RunProportionSweep(benchConfig())
	})
}

// BenchmarkCapabilityValidation regenerates §V-B: every scheme combination
// coschedules under every load/proportion, and the Figure 2 deadlock
// appears exactly when the release enhancement is off.
func BenchmarkCapabilityValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := experiments.RunValidation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if !v.Passed() {
			b.Fatal("capability validation failed")
		}
	}
}

// BenchmarkFig3AvgWaitByLoad regenerates Figure 3 (average waiting time by
// Eureka load) and reports the HH-at-high-load penalty.
func BenchmarkFig3AvgWaitByLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loadSweepMemo.reset()
		s := benchLoadSweep(b)
		hh := s.Cell(0.75, experiments.Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		base := s.Baselines[0.75]
		b.ReportMetric(hh.IntrepidWait-base.IntrepidWait, "intrepid_hh_extra_wait_min")
		b.ReportMetric(hh.EurekaWait-base.EurekaWait, "eureka_hh_extra_wait_min")
		if _, tbl := s.Fig3Table(); len(tbl.Rows) != 12 {
			b.Fatal("fig3 table incomplete")
		}
	}
}

// BenchmarkFig4AvgSlowdownByLoad regenerates Figure 4.
func BenchmarkFig4AvgSlowdownByLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchLoadSweep(b)
		yy := s.Cell(0.75, experiments.Combo{Intrepid: cosched.Yield, Eureka: cosched.Yield})
		base := s.Baselines[0.75]
		b.ReportMetric(yy.IntrepidSlowdown-base.IntrepidSlowdown, "intrepid_yy_extra_slowdown")
		if a, _ := s.Fig4Table(); len(a.Rows) != 12 {
			b.Fatal("fig4 table incomplete")
		}
	}
}

// BenchmarkFig5SyncTimeByLoad regenerates Figure 5 (paired-job
// synchronization time by load and scheme).
func BenchmarkFig5SyncTimeByLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchLoadSweep(b)
		hh := s.Cell(0.50, experiments.Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		b.ReportMetric(hh.IntrepidSync, "intrepid_hh_sync_min")
		b.ReportMetric(hh.EurekaSync, "eureka_hh_sync_min")
		if a, _ := s.Fig5Table(); len(a.Rows) != 6 {
			b.Fatal("fig5 table incomplete")
		}
	}
}

// BenchmarkFig6ServiceUnitLossByLoad regenerates Figure 6.
func BenchmarkFig6ServiceUnitLossByLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchLoadSweep(b)
		hh := s.Cell(0.75, experiments.Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		b.ReportMetric(hh.IntrepidLossNH, "intrepid_hh_loss_node_hours")
		b.ReportMetric(hh.EurekaLossPct, "eureka_hh_loss_pct")
		if a, _ := s.Fig6Table(); len(a.Rows) != 6 {
			b.Fatal("fig6 table incomplete")
		}
	}
}

// BenchmarkFig7AvgWaitByProportion regenerates Figure 7.
func BenchmarkFig7AvgWaitByProportion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		propSweepMemo.reset()
		s := benchPropSweep(b)
		hh := s.Cell(0.33, experiments.Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		base := s.Baselines[0.33]
		b.ReportMetric(hh.IntrepidWait-base.IntrepidWait, "intrepid_hh33_extra_wait_min")
		if a, _ := s.Fig7Table(); len(a.Rows) != 20 {
			b.Fatal("fig7 table incomplete")
		}
	}
}

// BenchmarkFig8AvgSlowdownByProportion regenerates Figure 8.
func BenchmarkFig8AvgSlowdownByProportion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchPropSweep(b)
		hh := s.Cell(0.33, experiments.Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		base := s.Baselines[0.33]
		b.ReportMetric(hh.IntrepidSlowdown-base.IntrepidSlowdown, "intrepid_hh33_extra_slowdown")
		if a, _ := s.Fig8Table(); len(a.Rows) != 20 {
			b.Fatal("fig8 table incomplete")
		}
	}
}

// BenchmarkFig9SyncTimeByProportion regenerates Figure 9.
func BenchmarkFig9SyncTimeByProportion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchPropSweep(b)
		hh := s.Cell(0.20, experiments.Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		b.ReportMetric(hh.IntrepidSync, "intrepid_hh20_sync_min")
		if a, _ := s.Fig9Table(); len(a.Rows) != 10 {
			b.Fatal("fig9 table incomplete")
		}
	}
}

// BenchmarkFig10ServiceUnitLossByProportion regenerates Figure 10.
func BenchmarkFig10ServiceUnitLossByProportion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchPropSweep(b)
		hh := s.Cell(0.33, experiments.Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		b.ReportMetric(hh.IntrepidLossNH, "intrepid_hh33_loss_node_hours")
		b.ReportMetric(hh.EurekaLossNH, "eureka_hh33_loss_node_hours")
		if a, _ := s.Fig10Table(); len(a.Rows) != 10 {
			b.Fatal("fig10 table incomplete")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// ablationCell runs one HH cell at Eureka util 0.50 with the given config
// mutation and returns the combined sync minutes and loss node-hours.
func ablationCell(b *testing.B, mutate func(*cosched.Config)) (syncMin, lossNH, waitMin float64) {
	b.Helper()
	cfg := benchConfig()
	intr, err := workload.Generate(func() workload.Spec {
		s := workload.IntrepidSpec(11)
		s.Jobs = int(float64(s.Jobs) * benchFactor)
		return s
	}())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.ScaleToUtilization(intr, experiments.IntrepidNodes, cfg.IntrepidUtil); err != nil {
		b.Fatal(err)
	}
	spec := workload.EurekaSpec(12)
	spec.Jobs = int(float64(spec.Jobs) * benchFactor)
	eur, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.ScaleToUtilization(eur, experiments.EurekaNodes, 0.5); err != nil {
		b.Fatal(err)
	}
	workload.PairNearest(workload.NewRNG(13),
		workload.Eligible(intr, experiments.MaxPairedIntrepidNodes),
		workload.Eligible(eur, experiments.MaxPairedEurekaNodes),
		"intrepid", "eureka", len(intr)/10, 2*sim.Hour)

	cc := cosched.DefaultConfig(cosched.Hold)
	mutate(&cc)
	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
		{Name: "intrepid", Nodes: experiments.IntrepidNodes, Backfilling: true, Cosched: cc, Trace: intr},
		{Name: "eureka", Nodes: experiments.EurekaNodes, Backfilling: true, Cosched: cc, Trace: eur},
	}})
	if err != nil {
		b.Fatal(err)
	}
	res := s.Run()
	if res.CoStartViolations != 0 {
		b.Fatalf("%d co-start violations", res.CoStartViolations)
	}
	ri := res.Reports["intrepid"]
	re := res.Reports["eureka"]
	return ri.PairedSync.Mean + re.PairedSync.Mean, ri.LostNodeHours + re.LostNodeHours, ri.Wait.Mean
}

// BenchmarkAblationReleaseInterval sweeps the deadlock-breaking release
// period: shorter intervals trade hold efficiency for liveness.
func BenchmarkAblationReleaseInterval(b *testing.B) {
	for _, minutes := range []int64{5, 10, 20, 40, 80} {
		b.Run(fmt.Sprintf("%dmin", minutes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sync, loss, _ := ablationCell(b, func(c *cosched.Config) {
					c.ReleaseInterval = sim.Duration(minutes) * sim.Minute
				})
				b.ReportMetric(sync, "sync_min")
				b.ReportMetric(loss, "loss_node_hours")
			}
		})
	}
}

// BenchmarkAblationHeldFraction sweeps the §IV-E2 held-nodes cap.
func BenchmarkAblationHeldFraction(b *testing.B) {
	for _, frac := range []float64{0.1, 0.2, 0.5, 1.0} {
		b.Run(fmt.Sprintf("cap%.0f%%", frac*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sync, loss, _ := ablationCell(b, func(c *cosched.Config) {
					c.MaxHeldFraction = frac
				})
				b.ReportMetric(sync, "sync_min")
				b.ReportMetric(loss, "loss_node_hours")
			}
		})
	}
}

// BenchmarkAblationYieldEscalation compares plain yield against the two
// §IV-E2 anti-starvation options: max-yields-then-hold and per-yield
// priority boost.
func BenchmarkAblationYieldEscalation(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*cosched.Config)
	}{
		{"plain_yield", func(c *cosched.Config) { c.Scheme = cosched.Yield }},
		{"max_yields_3", func(c *cosched.Config) { c.Scheme = cosched.Yield; c.MaxYields = 3 }},
		{"yield_boost", func(c *cosched.Config) { c.Scheme = cosched.Yield; c.YieldBoost = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sync, loss, _ := ablationCell(b, v.mutate)
				b.ReportMetric(sync, "sync_min")
				b.ReportMetric(loss, "loss_node_hours")
			}
		})
	}
}

// BenchmarkAblationBackfill compares the three planner modes — no
// backfill, EASY (the paper's setting), and conservative — on the Intrepid
// baseline.
func BenchmarkAblationBackfill(b *testing.B) {
	run := func(b *testing.B, backfilling bool, mode string) {
		intr, err := workload.Generate(func() workload.Spec {
			s := workload.IntrepidSpec(21)
			s.Jobs = int(float64(s.Jobs) * benchFactor)
			return s
		}())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.ScaleToUtilization(intr, experiments.IntrepidNodes, 0.68); err != nil {
			b.Fatal(err)
		}
		s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
			{Name: "intrepid", Nodes: experiments.IntrepidNodes,
				Backfilling: backfilling, BackfillMode: mode, Trace: intr},
		}})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		if res.StuckJobs != 0 {
			b.Fatal("stuck jobs")
		}
		b.ReportMetric(res.Reports["intrepid"].Wait.Mean, "wait_min")
	}
	b.Run("easy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, true, "easy")
		}
	})
	b.Run("conservative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, true, "conservative")
		}
	})
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, false, "")
		}
	})
}

// BenchmarkProtoOverhead compares direct in-process peer wiring against
// the full length-prefixed JSON protocol over a pipe for an identical
// coupled simulation.
func BenchmarkProtoOverhead(b *testing.B) {
	run := func(b *testing.B, wire bool) {
		spec := workload.EurekaSpec(31)
		spec.Jobs = 400
		a, err := workload.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Seed = 32
		bb, err := workload.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		workload.PairNearest(workload.NewRNG(33), a, bb, "A", "B", 100, 2*sim.Hour)
		s, err := coupled.New(coupled.Options{
			Domains: []coupled.DomainConfig{
				{Name: "A", Nodes: 100, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
				{Name: "B", Nodes: 100, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield), Trace: bb},
			},
			UseWireProtocol: wire,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res := s.Run(); res.CoStartViolations != 0 {
			b.Fatal("co-start violations")
		}
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, false)
		}
	})
	b.Run("wire", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, true)
		}
	})
}

// BenchmarkBaselineCoReservation regenerates the §III comparison: the
// advance co-reservation baseline against coscheduling on the same paired
// workload. The reported metrics carry the paper's argument — reservations
// co-start pairs but fragment the machines.
func BenchmarkBaselineCoReservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunReservationComparison(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		coschedRow := c.Row("cosched(HY)")
		reserveRow := c.Row("co-reservation")
		if coschedRow == nil || reserveRow == nil {
			b.Fatal("comparison rows missing")
		}
		b.ReportMetric(coschedRow.IntrepidWait, "cosched_wait_min")
		b.ReportMetric(reserveRow.IntrepidWait, "reservation_wait_min")
		b.ReportMetric(reserveRow.PairSync, "reservation_lead_min")
		if reserveRow.CoStartViolations != 0 {
			b.Fatal("co-reservation violated co-start")
		}
	}
}

// BenchmarkNWayExtension regenerates the §VI future-work study: co-start
// group widths 2–4 across four heterogeneous domains.
func BenchmarkNWayExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunNWaySweep(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Rows {
			if r.GroupStartSpread != 0 || r.CoStartViolations != 0 {
				b.Fatalf("width %d/%s: spread=%g viol=%d",
					r.Width, r.Scheme, r.GroupStartSpread, r.CoStartViolations)
			}
		}
		last := s.Rows[len(s.Rows)-1]
		b.ReportMetric(last.GroupSync, "width4_sync_min")
	}
}

// BenchmarkAblationRuntimePrediction compares walltime-based backfill
// planning against Tsafrir-style user-average runtime prediction (the
// paper's [31]) on the Intrepid baseline.
func BenchmarkAblationRuntimePrediction(b *testing.B) {
	run := func(b *testing.B, estimator string) {
		intr, err := workload.Generate(func() workload.Spec {
			s := workload.IntrepidSpec(61)
			s.Jobs = int(float64(s.Jobs) * benchFactor * 3)
			return s
		}())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.ScaleToUtilization(intr, experiments.IntrepidNodes, 0.72); err != nil {
			b.Fatal(err)
		}
		s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
			{Name: "intrepid", Nodes: experiments.IntrepidNodes, Backfilling: true,
				Estimator: estimator, Trace: intr},
		}})
		if err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		if res.StuckJobs != 0 {
			b.Fatal("stuck jobs")
		}
		rep := res.Reports["intrepid"]
		b.ReportMetric(rep.Wait.Mean, "wait_min")
		b.ReportMetric(rep.Slowdown.Mean, "slowdown")
	}
	b.Run("walltime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, "walltime")
		}
	})
	b.Run("user_average", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, "user-average")
		}
	})
}

// ---------------------------------------------------------------------------
// Kernel micro-benchmarks.

// BenchmarkEngineEventThroughput measures raw event scheduling/dispatch:
// one op is a future event plus the same-instant follow-up it schedules when
// it fires, the shape of a state change requesting a scheduling iteration.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.NewEngine()
	nop := func(sim.Time) {}
	h := func(sim.Time) { e.After(0, sim.PrioritySchedule, nop) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(sim.Duration(i%1000), sim.PriorityDefault, h)
		if i%1024 == 1023 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
}

// TestEngineEventThroughputZeroAlloc asserts the free-list property on the
// benchmark itself: with event structs recycled, the throughput loop must
// run at 0 allocs/op (the pool warms once, then every schedule reuses a
// fired event). This is the regression gate for the old 1 alloc / 48 B
// per event recorded in BENCH_parallel.json.
func TestEngineEventThroughputZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion; skipped in -short")
	}
	r := testing.Benchmark(BenchmarkEngineEventThroughput)
	if r.N > 1024 && r.AllocsPerOp() != 0 {
		t.Fatalf("engine event throughput allocates %d/op (%d B/op), want 0 — event free list regressed",
			r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
}

// BenchmarkPolicyOrder measures queue ordering at a saturation-sized
// queue: the allocating package-level Order against a reused Orderer (the
// resource manager keeps one per domain, so "reused" is the hot path).
func BenchmarkPolicyOrder(b *testing.B) {
	rng := workload.NewRNG(41)
	q := make([]*job.Job, 4096)
	for i := range q {
		q[i] = job.New(job.ID(i+1), rng.Intn(1024)+1, sim.Time(rng.Intn(86400)),
			sim.Duration(rng.Intn(7200)+60), sim.Duration(rng.Intn(7200)+3600))
	}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			policy.Order(policy.WFP{}, q, sim.Time(i), nil)
		}
	})
	b.Run("reused", func(b *testing.B) {
		var o policy.Orderer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.Order(policy.WFP{}, q, sim.Time(i), nil)
		}
	})
}

// BenchmarkSingleDomainMonth measures end-to-end simulation throughput for
// one month of the full-scale Intrepid workload (9,219 jobs).
func BenchmarkSingleDomainMonth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		intr, err := workload.Generate(workload.IntrepidSpec(51))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.ScaleToUtilization(intr, experiments.IntrepidNodes, 0.68); err != nil {
			b.Fatal(err)
		}
		s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
			{Name: "intrepid", Nodes: experiments.IntrepidNodes, Backfilling: true, Trace: intr},
		}})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if res := s.Run(); res.StuckJobs != 0 {
			b.Fatal("stuck jobs")
		}
	}
}

// BenchmarkTraceGeneration measures synthetic workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.IntrepidSpec(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
