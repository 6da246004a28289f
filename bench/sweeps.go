package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"cosched/internal/experiments"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/workload"
)

// Sizes of the three sweep workloads. Run length is set by -seconds, so a
// round is sized to fit several times into one run: every reported time is
// a lower quartile over rounds.
const (
	// paperReps is the repetition count of a sweep_paper pass: 80 cells of
	// ~16k jobs, ~1.3 s warm. The paper's count is 10 (400 cells, ~6.5 s a
	// pass), which would leave four measured passes per run.
	paperReps = 2
	// megaJobs scales the Intrepid trace of mega_cell (≈0.8 M jobs in all,
	// ~1.7 s a round, ~400 MB peak RSS). At a million a round is 4.5 s and
	// a run holds five.
	megaJobs = 500_000
	megaUtil = 0.75
	// minRounds is how many rounds a sweep workload measures at least, even
	// when -seconds is shorter than that takes.
	minRounds = 3
	// warmFactor is the job-count scale of the reduced pass every sweep
	// set-up runs: it fills the cell-buffer pool and grows the heap, so
	// work a later change moves into first use shows in setup_s.
	warmFactor = 0.1
)

// paperConfig is cmd/experiments' configuration for `-exp load,prop
// -parallel 1`, at paperReps.
func paperConfig(seed uint64, factor float64) experiments.Config {
	cfg := experiments.DefaultConfig(seed, factor)
	cfg.Reps = paperReps
	cfg.Parallelism = 1
	return cfg
}

// sweepPass runs the load and proportion sweeps through their public entry
// points, renders every Figure 3–10 table, and returns the SHA-256 of the
// rendered bytes, the simulated cells, and how many of them left a stuck
// job or a co-start violation. It laps between the two sweeps.
func sweepPass(cfg experiments.Config, rec *recorder, lap func()) (dig string, cells, bad int, err error) {
	load, err := experiments.RunLoadSweep(cfg)
	if err != nil {
		return "", 0, 0, err
	}
	lap()
	prop, err := experiments.RunProportionSweep(cfg)
	if err != nil {
		return "", 0, 0, err
	}
	end := rec.begin(spanRender, -1)
	h := sha256.New()
	add := func(a, b *metrics.Table) {
		io.WriteString(h, a.Render())
		io.WriteString(h, b.Render())
	}
	add(load.Fig3Table())
	add(load.Fig4Table())
	add(load.Fig5Table())
	add(load.Fig6Table())
	add(prop.Fig7Table())
	add(prop.Fig8Table())
	add(prop.Fig9Table())
	add(prop.Fig10Table())
	end()
	for _, c := range append(append([]*experiments.Cell(nil), load.Cells...), prop.Cells...) {
		if c.Stuck > 0 || c.CoStartViol > 0 {
			bad += cfg.Reps
		}
	}
	groups := (len(load.Utils) + len(prop.Proportions)) * cfg.Reps
	return fmt.Sprintf("%x", h.Sum(nil)), groups * experiments.RowsPerGroup(), bad, nil
}

// sweepKinds are the two sweeps of a pass with their grid sizes.
var sweepKinds = []struct {
	kind   experiments.SweepKind
	points int
}{
	{experiments.KindLoad, len(experiments.LoadSweepUtils)},
	{experiments.KindProp, len(experiments.ProportionSweepPoints)},
}

// censusJobs counts the jobs one pass simulates by regenerating every
// group's traces (the sweeps' entry points do not report it).
func censusJobs(cfg experiments.Config) (int, error) {
	jobs := 0
	for _, k := range sweepKinds {
		for ui := 0; ui < k.points; ui++ {
			for rep := 0; rep < cfg.Reps; rep++ {
				g, err := sweepGroup(nil, k.kind, cfg, ui, rep, 0)
				if err != nil {
					return 0, err
				}
				jobs += g.jobs() * experiments.RowsPerGroup()
			}
		}
	}
	return jobs, nil
}

// checkDigests applies the output checks shared by the sweep workloads:
// every repetition agrees with the first, and for the default seed the
// first equals golden.json.
func (e *env) checkDigests(digests []string) {
	for i, d := range digests {
		if d != digests[0] {
			e.failf("repetition %d digest %s differs from repetition 0 %s", i, d, digests[0])
		}
	}
	e.info["digest"] = digests[0]
	if want, ok := goldenDigest(e.workload, e.seed); ok && digests[0] != want {
		e.failf("digest %s differs from golden.json %s (seed %d)", digests[0], want, e.seed)
	}
}

func runSweepPaper(e *env) error {
	e.sweepGC()
	cfg := paperConfig(e.seed, 1.0)
	var jobs int
	setups, err := timeSetups(func() error {
		var err error
		if jobs, err = censusJobs(cfg); err != nil {
			return err
		}
		_, _, _, err = sweepPass(paperConfig(e.seed, warmFactor), nil, func() {})
		return err
	})
	if err != nil {
		return err
	}
	e.info["jobs_per_pass"] = jobs

	var digests []string
	pass := func(c experiments.Config, rec *recorder, lap func()) (int, []time.Duration, error) {
		dig, cells, bad, err := sweepPass(c, rec, lap)
		digests = append(digests, dig)
		e.attempted += cells
		e.failed += bad
		return jobs, nil, err
	}
	plain := func(lap func()) (int, []time.Duration, error) { return pass(cfg, nil, lap) }
	if e.rec == nil {
		rounds, err := measure(e.seconds, minRounds, plain)
		if err != nil {
			return err
		}
		e.checkDigests(digests)
		e.setEndToEnd(setups, rounds)
		return nil
	}

	// Traced run: reference passes through the real entry points, then the
	// same passes with every cell rebuilt from public calls under spans and
	// fed back through Config.Dist, which must render the same tables.
	var passes []tracedPass
	ref, traced, err := measurePairs(e.seconds*2/3, 2, plain, func(lap func()) (int, []time.Duration, error) {
		d := &tracedDist{rec: e.rec}
		tcfg := cfg
		tcfg.Dist = d
		mark := e.rec.mark()
		jobs, units, err := pass(tcfg, e.rec, lap)
		passes = append(passes, tracedPass{spans: e.rec.since(mark), stats: d.stats, generated: d.generated})
		return jobs, units, err
	})
	if err != nil {
		return err
	}
	e.checkDigests(digests)
	e.setSweepLayers(ref, traced, passes)

	e.metrics["sim.bare_ns_per_event"] = simBareNsPerEvent()
	e.metrics["resmgr.iterate_steady_ns"], e.metrics["resmgr.iterate_churn_ns"] = iterateNs()
	if e.metrics["backfill.plan_ns"], err = backfillPlanNs(e.seed); err != nil {
		return err
	}
	if e.metrics["policy.order_ns"], err = policyOrderNs(e.seed); err != nil {
		return err
	}
	return e.setParallelEfficiency(cfg)
}

// setParallelEfficiency times the load sweep at Parallelism 1 and w =
// min(nproc, 4) and reports T1 ÷ (w·Tw). With one CPU it is unresolved and
// stays 0.
func (e *env) setParallelEfficiency(cfg experiments.Config) error {
	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	e.info["parallel.workers"] = w
	if w < 2 {
		e.info["parallel.efficiency"] = "unresolved: 1 CPU"
		return nil
	}
	timeAt := func(par int) (float64, error) {
		c := cfg
		c.Parallelism = par
		ts := make([]float64, 3)
		for i := range ts {
			start := time.Now()
			if _, err := experiments.RunLoadSweep(c); err != nil {
				return 0, err
			}
			ts[i] = time.Since(start).Seconds()
		}
		return median(ts), nil
	}
	t1, err := timeAt(1)
	if err != nil {
		return err
	}
	tw, err := timeAt(w)
	if err != nil {
		return err
	}
	e.metrics["parallel.efficiency"] = t1 / (float64(w) * tw)
	e.info["parallel.t1_s"], e.info["parallel.tw_s"] = t1, tw
	return nil
}

// tracedDist is an experiments.Distributor that computes every group in
// process from the modules' public functions, with a span around each call
// and every peer call counted. RunLoadSweep / RunProportionSweep aggregate
// and render its rows exactly as they do their own.
type tracedDist struct {
	rec       *recorder
	buf       cellBuffers
	stats     cellStats
	generated int // jobs generated (each group's traces, once)
	cells     int
}

func (d *tracedDist) RunGroups(kind experiments.SweepKind, cfg experiments.Config, numGroups int) ([][]experiments.CellRow, error) {
	out := make([][]experiments.CellRow, numGroups)
	for g := range out {
		grp, err := sweepGroup(d.rec, kind, cfg, g/cfg.Reps, g%cfg.Reps, d.cells)
		if err != nil {
			return nil, err
		}
		d.generated += grp.jobs()
		for combo := -1; combo < len(experiments.Combos); combo++ {
			res, st, err := runCell(d.rec, cfg, grp, combo, counted, &d.buf, d.cells)
			if err != nil {
				return nil, err
			}
			d.cells++
			d.stats.add(st)
			row := experiments.CellRow{Group: g, Combo: combo}
			if combo < 0 {
				row.Base = asBaseline(res, grp.x)
				row.Frac = grp.frac
			} else {
				row.Cell = asCell(res, experiments.Combos[combo], grp.x)
			}
			out[g] = append(out[g], row)
		}
	}
	return out, nil
}

// tracedPass is what one traced round leaves behind.
type tracedPass struct {
	spans     []span
	stats     cellStats
	generated int
}

// setSweepLayers turns traced rounds into the sweep path's per-layer
// metrics. Times are medians over the traced rounds; counters are exact and
// taken from the first round. ref[i] is the untraced round that ran just
// before traced round i, and the tracing metrics compare only such pairs.
func (e *env) setSweepLayers(ref, traced []round, passes []tracedPass) {
	byName := make(map[string][]float64)
	var residual, coverage, overhead []float64
	for i, p := range passes {
		lt := selfTimes(p.spans)
		// Sim.Run folds the reports itself, so its span already holds one
		// fold; the separately timed second fold stands in for it. Taking
		// it out of the run's row makes the rows sum to the pass (the
		// second fold itself is tracing overhead, not part of the sum).
		run := lt[spanRun]
		run.Total -= lt[spanCollect].Total
		lt[spanRun] = run
		sum := 0.0
		for _, name := range layerSpans {
			s := lt[name].Total.Seconds()
			byName[name] = append(byName[name], s)
			sum += s
		}
		untraced := ref[i].wall().Seconds()
		residual = append(residual, untraced-sum)
		coverage = append(coverage, sum/untraced)
		overhead = append(overhead, (traced[i].wall().Seconds()-untraced)/untraced)
	}
	sec := func(name string) float64 { return median(byName[name]) }
	st, generated := passes[0].stats, passes[0].generated
	e.metrics["workload.generate_s"] = sec(spanGenerate)
	e.metrics["workload.generate_ns_per_job"] = sec(spanGenerate) * 1e9 / float64(generated)
	e.metrics["workload.capture_s"] = sec(spanCapture)
	e.metrics["workload.materialize_s"] = sec(spanMaterialize)
	e.metrics["workload.materialize_ns_per_job"] = sec(spanMaterialize) * 1e9 / float64(st.jobs)
	e.metrics["coupled.new_s"] = sec(spanNew)
	e.metrics["coupled.run_s"] = sec(spanRun)
	e.metrics["metrics.collect_s"] = sec(spanCollect)
	e.metrics["metrics.render_s"] = sec(spanRender)
	e.metrics["sim.events"] = float64(st.events)
	e.metrics["sim.ns_per_event"] = sec(spanRun) * 1e9 / float64(st.events)
	e.metrics["resmgr.iterations"] = float64(st.iterations)
	e.metrics["resmgr.skips"] = float64(st.skips)
	e.metrics["resmgr.skip_ratio"] = float64(st.skips) / float64(st.iterations)
	e.setPeerCalls(st)

	e.metrics["experiments.residual_s"] = median(residual)
	e.metrics["trace.coverage"] = median(coverage)
	e.metrics["trace.overhead_share"] = median(overhead)
	// The spans should account for 0.9–1.1 of the untraced round. Outside
	// that band the record says so but the run does not fail: two adjacent
	// rounds on the reference machine have differed by 30 % on their own,
	// and the digest check already proves the rebuilt cells are the same
	// cells.
	if c := median(coverage); c < 0.9 || c > 1.1 {
		e.info["trace.coverage_note"] = "outside the 0.9–1.1 target: adjacent rounds drifted apart (see untraced_round_s, traced_round_s); rerun"
	}
	e.info["untraced_round_s"], e.info["traced_round_s"] = walls(ref), walls(traced)
	e.info["traced_rounds"] = len(passes)
	var table strings.Builder
	lt := selfTimes(passes[0].spans)
	for _, name := range layerSpans {
		fmt.Fprintf(&table, " %s×%d total=%v self=%v;", name, lt[name].Count, lt[name].Total.Round(time.Microsecond), lt[name].Self.Round(time.Microsecond))
	}
	e.info["spans_first_round"] = table.String()
}

// setPeerCalls reports the exact coordination-call counters of a pass.
func (e *env) setPeerCalls(st cellStats) {
	e.metrics["cosched.peer_calls"] = float64(st.calls.total())
	for i, m := range peerMethods {
		e.metrics["cosched.peer_calls."+m] = float64(st.calls[i])
	}
	if st.pairs > 0 {
		e.metrics["cosched.peer_calls_per_pair"] = float64(st.calls.total()) / float64(st.pairs)
		e.metrics["cosched.holds_per_pair"] = float64(st.holds) / float64(st.pairs)
		e.metrics["cosched.yields_per_pair"] = float64(st.yields) / float64(st.pairs)
	}
	e.info["pairs"] = st.pairs
}

// sweep_wire's inputs. Its arrival process is fixed — the load sweep's
// traces at wireTraceSeed — and -seed draws which jobs are mates. With the
// traces themselves drawn from -seed, peer calls per job swing by ±17% from
// one seed to the next (how often a yielded pair retries depends on where
// the trace's congested stretches fall), which is several times any bound a
// throughput metric could carry; with only the pairing drawn it is ±4%.
const wireTraceSeed = 1

// wirePairedShare is the share of Intrepid jobs paired at each load-sweep
// utilization, set to what the sweep's 2-minute window rule pairs on
// average.
var wirePairedShare = []float64{0.07, 0.15, 0.22}

// wireGroup builds the ui-th sweep_wire group: one trace pair per load-sweep
// util, shared by the four scheme combinations (the baseline makes no peer
// calls and is left out).
func wireGroup(rec *recorder, cfg experiments.Config, ui, unit int) (*group, error) {
	x := experiments.LoadSweepUtils[ui]
	return buildGroup(rec, x, unit, func() ([]*job.Job, []*job.Job, error) {
		fixed := cfg
		fixed.Seed = wireTraceSeed
		intr, eur, err := unpairedLoadTraces(fixed, groupSeed(experiments.KindLoad, fixed, ui, 0), x)
		if err != nil {
			return nil, nil, err
		}
		want := int(float64(len(intr))*wirePairedShare[ui] + 0.5)
		workload.PairNearest(workload.NewRNG(cfg.Seed+uint64(ui)),
			workload.Eligible(intr, experiments.MaxPairedIntrepidNodes),
			workload.Eligible(eur, experiments.MaxPairedEurekaNodes),
			experiments.DomIntrepid, experiments.DomEureka, want, experiments.PairMaxGap)
		return intr, eur, nil
	})
}

// wirePass simulates the sweep_wire grid once in the given peer mode and
// returns each cell's result digest. It laps after every trace pair and
// every cell.
func wirePass(rec *recorder, cfg experiments.Config, mode cellMode, buf *cellBuffers, lap func()) (digests []string, st cellStats, generated, bad int, err error) {
	for ui := range experiments.LoadSweepUtils {
		g, err := wireGroup(rec, cfg, ui, len(digests))
		if err != nil {
			return nil, st, 0, 0, err
		}
		lap()
		generated += g.jobs()
		for combo := range experiments.Combos {
			res, cs, err := runCell(rec, cfg, g, combo, mode, buf, len(digests))
			if err != nil {
				return nil, st, 0, 0, err
			}
			lap()
			digests = append(digests, digest(res))
			st.add(cs)
			if res.StuckJobs > 0 || res.CoStartViolations > 0 {
				bad++
			}
		}
	}
	return digests, st, generated, bad, nil
}

func runSweepWire(e *env) error {
	cfg := experiments.DefaultConfig(e.seed, 1.0)
	var buf cellBuffers

	// Set-up computes the direct-mode reference every wire cell must match
	// (and, traced, the peer-call counts: they are the same in both modes).
	refMode := direct
	if e.rec != nil {
		refMode = counted
	}
	var want []string
	var refStats cellStats
	setups, err := timeSetups(func() error {
		var err error
		want, refStats, _, _, err = wirePass(nil, cfg, refMode, &buf, func() {})
		return err
	})
	if err != nil {
		return err
	}

	var digests []string
	var passes []tracedPass
	pass := func(rec *recorder) roundFunc {
		return func(lap func()) (int, []time.Duration, error) {
			mark := rec.mark()
			got, st, generated, bad, err := wirePass(rec, cfg, wire, &buf, lap)
			if err != nil {
				return 0, nil, err
			}
			for i := range got {
				if got[i] != want[i] {
					e.failf("cell %d: wire result digest %s differs from direct %s", i, got[i], want[i])
					bad++
				}
			}
			e.attempted += len(got)
			e.failed += bad
			digests = append(digests, digest(got))
			if rec != nil {
				passes = append(passes, tracedPass{spans: rec.since(mark), stats: st, generated: generated})
			}
			return st.jobs, nil, nil
		}
	}
	if e.rec == nil {
		rounds, err := measure(e.seconds, minRounds, pass(nil))
		if err != nil {
			return err
		}
		e.checkDigests(digests)
		e.setEndToEnd(setups, rounds)
		return nil
	}

	ref, traced, err := measurePairs(e.seconds*2/3, 1, pass(nil), pass(e.rec))
	if err != nil {
		return err
	}
	e.checkDigests(digests)
	// Wire cells cannot be counted from outside; the direct reference made
	// exactly the same calls.
	for i := range passes {
		passes[i].stats.calls = refStats.calls
	}
	e.setSweepLayers(ref, traced, passes)

	// The set-up pass is the same 12 cells with direct peers.
	directS, wireS := setups[len(setups)-1].d.Seconds(), wallMedian(ref)
	e.metrics["proto.wire_over_direct"] = wireS / directS
	e.info["proto.wire_round_s"], e.info["proto.direct_round_s"] = wireS, directS
	if e.metrics["proto.encode_ns"], e.metrics["proto.decode_ns"], e.metrics["proto.bytes_per_frame"], err = frameCodec(); err != nil {
		return err
	}
	if e.metrics["proto.pipe_call_us"], err = pipeCallUs(); err != nil {
		return err
	}
	return nil
}

// mega_cell's inputs are chosen as sweep_wire's are. With everything drawn
// from -seed the Eureka trace alone ranges from 160k to 350k jobs and the
// window rule pairs 14–23 % of the Intrepid jobs, so peer calls per job, and
// with them the cost of a job, move by ±13 % from seed to seed. The traces
// are therefore the load sweep's at megaTraceSeed, scaled to megaJobs
// Intrepid jobs, and -seed draws which megaPairedShare of them have mates.
const (
	megaTraceSeed   = 1
	megaPairedShare = 0.2
)

// megaConfig is cfg with the Intrepid trace scaled to jobs.
func megaConfig(cfg experiments.Config, jobs int) experiments.Config {
	cfg.JobFactor = float64(jobs) / float64(workload.IntrepidSpec(cfg.Seed).Jobs)
	return cfg
}

// megaCell freezes the trace pair gen returns and simulates one HH cell on
// it from public calls, as experiments.MegaTraces does behind its entry
// points: a private arena per call, which dies with it. It laps between
// building the traces and the cell.
func megaCell(rec *recorder, cfg experiments.Config, mode cellMode, lap func(), gen func() (intr, eur []*job.Job, err error)) (*experiments.Cell, cellStats, int, error) {
	g, err := buildGroup(rec, megaUtil, 0, gen)
	if err != nil {
		return nil, cellStats{}, 0, err
	}
	lap()
	res, st, err := runCell(rec, cfg, g, 0, mode, new(cellBuffers), 0)
	if err != nil {
		return nil, cellStats{}, 0, err
	}
	cell := asCell(res, experiments.Combos[0], megaUtil)
	return &cell, st, g.jobs(), nil
}

// megaRound is one mega_cell round: generate the fixed traces at jobs
// Intrepid jobs, draw the mates from cfg.Seed, freeze, materialize and
// simulate.
func megaRound(rec *recorder, cfg experiments.Config, jobs int, mode cellMode, lap func()) (*experiments.Cell, cellStats, int, error) {
	cfg = megaConfig(cfg, jobs)
	return megaCell(rec, cfg, mode, lap, func() ([]*job.Job, []*job.Job, error) {
		fixed := cfg
		fixed.Seed = megaTraceSeed
		intr, eur, err := unpairedLoadTraces(fixed, megaTraceSeed, megaUtil)
		if err != nil {
			return nil, nil, err
		}
		workload.PairNearest(workload.NewRNG(cfg.Seed),
			workload.Eligible(intr, experiments.MaxPairedIntrepidNodes),
			workload.Eligible(eur, experiments.MaxPairedEurekaNodes),
			experiments.DomIntrepid, experiments.DomEureka,
			int(float64(len(intr))*megaPairedShare+0.5), experiments.PairMaxGap)
		return intr, eur, nil
	})
}

// checkMegaEntryPoints runs a reduced cell through the entry points
// cmd/experiments -megabench uses (BuildMegaTraces, MegaTraces.Run) and
// through megaCell on the same window-paired traces; the two must agree, so
// megaCell cannot drift from what users run.
func checkMegaEntryPoints(e *env, cfg experiments.Config, jobs int) error {
	mega, err := experiments.BuildMegaTraces(cfg, jobs, megaUtil)
	if err != nil {
		return err
	}
	want, err := mega.Run(cfg, experiments.Combos[0])
	if err != nil {
		return err
	}
	cfg = megaConfig(cfg, jobs)
	got, _, _, err := megaCell(nil, cfg, direct, func() {}, func() ([]*job.Job, []*job.Job, error) {
		return loadTraces(cfg, cfg.Seed, megaUtil)
	})
	if err != nil {
		return err
	}
	if digest(got) != digest(want) {
		e.failf("rebuilt mega cell %s differs from BuildMegaTraces+Run %s at %d jobs", digest(got), digest(want), jobs)
	}
	return nil
}

func runMegaCell(e *env) error {
	e.sweepGC()
	cfg := experiments.DefaultConfig(e.seed, 1.0)
	setups, err := timeSetups(func() error { return checkMegaEntryPoints(e, cfg, int(megaJobs*warmFactor)) })
	if err != nil {
		return err
	}

	var digests []string
	var passes []tracedPass
	cellRound := func(rec *recorder, mode cellMode) roundFunc {
		return func(lap func()) (int, []time.Duration, error) {
			mark := rec.mark()
			cell, st, generated, err := megaRound(rec, cfg, megaJobs, mode, lap)
			if err != nil {
				return 0, nil, err
			}
			e.attempted++
			if cell.Stuck > 0 || cell.CoStartViol > 0 {
				e.failed++
			}
			digests = append(digests, digest(cell))
			if rec != nil {
				passes = append(passes, tracedPass{spans: rec.since(mark), stats: st, generated: generated})
			}
			return st.jobs, nil, nil
		}
	}
	if e.rec == nil {
		rounds, err := measure(e.seconds, minRounds, cellRound(nil, direct))
		if err != nil {
			return err
		}
		e.checkDigests(digests)
		e.setEndToEnd(setups, rounds)
		return nil
	}

	ref, traced, err := measurePairs(e.seconds*2/3, 1, cellRound(nil, direct), cellRound(e.rec, counted))
	if err != nil {
		return err
	}
	e.checkDigests(digests)
	e.setSweepLayers(ref, traced, passes)
	e.metrics["sim.bare_ns_per_event"] = simBareNsPerEvent()
	return nil
}
