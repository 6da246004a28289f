package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"cosched/internal/arena"
	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/experiments"
	"cosched/internal/job"
	"cosched/internal/proto"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// This file rebuilds one sweep cell from the modules' public functions —
// generate, capture, materialize, coupled.New, Sim.Run, collect — with a
// span around each call. It mirrors what internal/experiments does behind
// RunLoadSweep / RunProportionSweep / MegaTraces.Run; the traced runs check
// that the rebuilt cells reproduce the tables of the real entry points, so
// a drift between the two fails the benchmark instead of skewing a budget.

// Span names: one per layer boundary the sweep path crosses.
const (
	spanGenerate    = "workload.generate"
	spanCapture     = "workload.capture"
	spanMaterialize = "workload.materialize"
	spanNew         = "coupled.new"
	spanRun         = "coupled.run"
	spanCollect     = "metrics.collect"
	spanRender      = "metrics.render"
)

// layerSpans are the span names whose durations make up a sweep pass.
var layerSpans = []string{spanGenerate, spanCapture, spanMaterialize, spanNew, spanRun, spanCollect, spanRender}

// intrepidTrace builds one month of Intrepid-like workload at the
// configured utilization.
func intrepidTrace(cfg experiments.Config, seed uint64) ([]*job.Job, error) {
	spec := workload.IntrepidSpec(seed)
	spec.Jobs = scaleCount(spec.Jobs, cfg.JobFactor)
	jobs, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ScaleToUtilization(jobs, experiments.IntrepidNodes, cfg.IntrepidUtil); err != nil {
		return nil, err
	}
	return jobs, nil
}

func scaleCount(n int, factor float64) int {
	s := int(float64(n)*factor + 0.5)
	if s < 10 {
		s = 10
	}
	return s
}

// loadTraces builds the load sweep's paired traces for one (util, seed):
// mates are jobs submitted within the 2-minute window of each other.
func loadTraces(cfg experiments.Config, seed uint64, util float64) (intr, eur []*job.Job, err error) {
	if intr, eur, err = unpairedLoadTraces(cfg, seed, util); err != nil {
		return nil, nil, err
	}
	workload.PairByWindow(
		workload.Eligible(intr, experiments.MaxPairedIntrepidNodes),
		workload.Eligible(eur, experiments.MaxPairedEurekaNodes),
		experiments.DomIntrepid, experiments.DomEureka, experiments.PairWindow)
	return intr, eur, nil
}

// unpairedLoadTraces builds the load sweep's two traces before pairing.
func unpairedLoadTraces(cfg experiments.Config, seed uint64, util float64) (intr, eur []*job.Job, err error) {
	if intr, err = intrepidTrace(cfg, seed); err != nil {
		return nil, nil, err
	}
	spec := workload.EurekaSpec(seed + 1)
	base, err := workload.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	offered := workload.OfferedLoad(base, experiments.EurekaNodes)
	spec.Jobs = scaleCount(int(float64(spec.Jobs)*util/offered+0.5), cfg.JobFactor)
	if eur, err = workload.Generate(spec); err != nil {
		return nil, nil, err
	}
	if _, err := workload.ScaleToUtilization(eur, experiments.EurekaNodes, util); err != nil {
		return nil, nil, err
	}
	return intr, eur, nil
}

// propTraces builds the proportion sweep's paired traces for one
// (proportion, seed).
func propTraces(cfg experiments.Config, seed uint64, prop float64) (intr, eur []*job.Job, err error) {
	if intr, err = intrepidTrace(cfg, seed); err != nil {
		return nil, nil, err
	}
	spec := workload.EurekaSpec(seed + 1)
	spec.Jobs = len(intr)
	spec.RuntimeMu = 6.05
	spec.RuntimeSigma = 1.10
	spec.MaxRuntime = 3 * sim.Hour
	if eur, err = workload.Generate(spec); err != nil {
		return nil, nil, err
	}
	if _, err := workload.ScaleToUtilization(eur, experiments.EurekaNodes, 0.5); err != nil {
		return nil, nil, err
	}
	want := int(float64(len(intr))*prop + 0.5)
	workload.PairNearest(workload.NewRNG(seed+2),
		workload.Eligible(intr, experiments.MaxPairedIntrepidNodes),
		workload.Eligible(eur, experiments.MaxPairedEurekaNodes),
		experiments.DomIntrepid, experiments.DomEureka, want, experiments.PairMaxGap)
	return intr, eur, nil
}

// group is the frozen trace pair shared by the five cells (baseline plus
// four scheme combinations) of one (sweep point, repetition).
type group struct {
	intr, eur *workload.Snapshot
	x         float64 // the sweep point: Eureka utilization or paired proportion
	frac      float64 // paired fraction of Intrepid jobs
}

func (g *group) jobs() int { return g.intr.Len() + g.eur.Len() }

// groupSeed is the trace seed internal/experiments derives for group
// (ui, rep) of a sweep.
func groupSeed(kind experiments.SweepKind, cfg experiments.Config, ui, rep int) uint64 {
	if kind == experiments.KindProp {
		return cfg.Seed + uint64(ui*1000+rep*104729)
	}
	return cfg.Seed + uint64(ui*1000+rep*7919)
}

// sweepPoint returns the x-axis value of a sweep's ui-th point.
func sweepPoint(kind experiments.SweepKind, ui int) float64 {
	if kind == experiments.KindProp {
		return experiments.ProportionSweepPoints[ui]
	}
	return experiments.LoadSweepUtils[ui]
}

// sweepGroup generates and freezes the traces of group (ui, rep) of a
// sweep, as internal/experiments builds them.
func sweepGroup(rec *recorder, kind experiments.SweepKind, cfg experiments.Config, ui, rep, unit int) (*group, error) {
	x, seed := sweepPoint(kind, ui), groupSeed(kind, cfg, ui, rep)
	if kind == experiments.KindProp {
		return buildGroup(rec, x, unit, func() ([]*job.Job, []*job.Job, error) { return propTraces(cfg, seed, x) })
	}
	return buildGroup(rec, x, unit, func() ([]*job.Job, []*job.Job, error) { return loadTraces(cfg, seed, x) })
}

// buildGroup generates a trace pair with gen and freezes it.
func buildGroup(rec *recorder, x float64, unit int, gen func() (intr, eur []*job.Job, err error)) (*group, error) {
	g := &group{x: x}
	end := rec.begin(spanGenerate, unit)
	intr, eur, err := gen()
	end()
	if err != nil {
		return nil, err
	}
	g.frac = workload.PairedFraction(intr)
	end = rec.begin(spanCapture, unit)
	g.intr, g.eur = workload.Capture(intr), workload.Capture(eur)
	end()
	return g, nil
}

// cellBuffers is the recycled materialization storage of one worker: the
// job arena plus the two trace pointer slices.
type cellBuffers struct {
	jobs      arena.Arena[job.Job]
	intr, eur []*job.Job
}

// cellStats are the exact per-cell counters read through public accessors
// after the run.
type cellStats struct {
	jobs, pairs   int
	events        uint64
	iterations    uint64
	skips         uint64
	holds, yields int
	calls         peerCalls
}

func (a *cellStats) add(b cellStats) {
	a.jobs += b.jobs
	a.pairs += b.pairs
	a.events += b.events
	a.iterations += b.iterations
	a.skips += b.skips
	a.holds += b.holds
	a.yields += b.yields
	a.calls.add(b.calls)
}

// cellMode selects how a rebuilt cell's peers are wired.
type cellMode int

const (
	direct  cellMode = iota // in-process peers, as the sweeps run
	counted                 // direct, with every peer call counted by method
	wire                    // every peer call is a proto frame over net.Pipe
)

// runCell simulates one cell of g: combo indexes experiments.Combos, or is
// -1 for the no-coscheduling baseline.
func runCell(rec *recorder, cfg experiments.Config, g *group, combo int, mode cellMode, buf *cellBuffers, unit int) (*coupled.Result, cellStats, error) {
	end := rec.begin(spanMaterialize, unit)
	buf.jobs.Reset()
	buf.intr = g.intr.MaterializeInto(&buf.jobs, buf.intr)
	buf.eur = g.eur.MaterializeInto(&buf.jobs, buf.eur)
	end()

	domains := []coupled.DomainConfig{
		{Name: experiments.DomIntrepid, Nodes: experiments.IntrepidNodes, Backfilling: true, Trace: buf.intr, SchedCore: cfg.SchedCore},
		{Name: experiments.DomEureka, Nodes: experiments.EurekaNodes, Backfilling: true, Trace: buf.eur, SchedCore: cfg.SchedCore},
	}
	if combo >= 0 {
		c := experiments.Combos[combo]
		for i, scheme := range []cosched.Scheme{c.Intrepid, c.Eureka} {
			cc := cosched.DefaultConfig(scheme)
			cc.ReleaseInterval = cfg.ReleaseInterval
			cc.MaxHeldFraction = cfg.MaxHeldFraction
			domains[i].Cosched = cc
		}
	}

	end = rec.begin(spanNew, unit)
	s, err := coupled.New(coupled.Options{Domains: domains, UseWireProtocol: mode == wire})
	var counters []*tracedPeer
	if err == nil && mode == counted {
		// AddPeer replaces the direct wiring coupled.New installed.
		for _, pair := range [][2]string{
			{experiments.DomIntrepid, experiments.DomEureka},
			{experiments.DomEureka, experiments.DomIntrepid},
		} {
			p := &tracedPeer{inner: s.Manager(pair[1])}
			s.Manager(pair[0]).AddPeer(pair[1], p)
			counters = append(counters, p)
		}
	}
	end()
	if err != nil {
		return nil, cellStats{}, err
	}

	end = rec.begin(spanRun, unit)
	res := s.Run()
	end()

	st := cellStats{jobs: res.TotalJobs, events: s.Engine().Fired()}
	for _, d := range domains {
		m := s.Manager(d.Name)
		st.iterations += m.Iterations()
		st.skips += m.Skips()
		st.holds += res.Reports[d.Name].Holds
		st.yields += res.Reports[d.Name].Yields
	}
	st.pairs = res.Reports[experiments.DomIntrepid].PairedCount
	for _, p := range counters {
		st.calls.add(p.calls)
	}
	if rec != nil {
		// Sim.Run folds the reports internally; timing an identical second
		// fold is the only way to see that layer from outside.
		end = rec.begin(spanCollect, unit)
		for _, d := range domains {
			m := s.Manager(d.Name)
			m.CollectReport(m.Pool().Total(), res.Makespan)
		}
		end()
	}
	return res, st, nil
}

// asCell folds a result into the sweep's row type exactly as
// internal/experiments does for one repetition.
func asCell(res *coupled.Result, combo experiments.Combo, x float64) experiments.Cell {
	ri := res.Reports[experiments.DomIntrepid]
	re := res.Reports[experiments.DomEureka]
	return experiments.Cell{
		Combo: combo, X: x,
		IntrepidWait: ri.Wait.Mean, EurekaWait: re.Wait.Mean,
		IntrepidWaitSamples: []float64{ri.Wait.Mean}, EurekaWaitSamples: []float64{re.Wait.Mean},
		IntrepidSlowdown: ri.Slowdown.Mean, EurekaSlowdown: re.Slowdown.Mean,
		IntrepidSync: ri.PairedSync.Mean, EurekaSync: re.PairedSync.Mean,
		IntrepidLossNH: ri.LostNodeHours, EurekaLossNH: re.LostNodeHours,
		IntrepidLossPct: 100 * ri.LostUtilization, EurekaLossPct: 100 * re.LostUtilization,
		PairedJobs:  ri.PairedCount,
		Stuck:       res.StuckJobs,
		CoStartViol: res.CoStartViolations,
	}
}

// asBaseline is asCell for the no-coscheduling reference.
func asBaseline(res *coupled.Result, x float64) experiments.Baseline {
	ri := res.Reports[experiments.DomIntrepid]
	re := res.Reports[experiments.DomEureka]
	return experiments.Baseline{
		X:            x,
		IntrepidWait: ri.Wait.Mean, EurekaWait: re.Wait.Mean,
		IntrepidSlowdown: ri.Slowdown.Mean, EurekaSlowdown: re.Slowdown.Mean,
		IntrepidUtil: ri.Utilization, EurekaUtil: re.Utilization,
	}
}

// digest is the SHA-256 of a value's printed form: %+v prints maps in key
// order and floats in their shortest round-trip form, so equal digests mean
// bit-equal simulated statistics.
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))
}

// peerMethods are the wire names of the coordination calls, in the order
// peerCalls counts them.
var peerMethods = []string{
	proto.MethodGetMateJob, proto.MethodGetMateStatus, proto.MethodCanStartMate,
	proto.MethodTryStartMate, proto.MethodStartMate, proto.MethodReconcile,
}

// peerCalls counts coordination calls by method (indexed as peerMethods).
type peerCalls [6]uint64

func (a *peerCalls) add(b peerCalls) {
	for i := range a {
		a[i] += b[i]
	}
}

func (a peerCalls) total() uint64 {
	var n uint64
	for _, c := range a {
		n += c
	}
	return n
}

// fullPeer is the whole coordination vocabulary a resource manager looks
// for on a peer: the base calls plus the two extensions it finds by type
// assertion. resmgr.Manager and peerlink.Link both provide it.
type fullPeer interface {
	cosched.Peer
	cosched.CoStarter
	cosched.Reconciler
}

// tracedPeer is the benchmark's decorator at the cosched.Peer seam. It
// forwards every call, counts it by method, and — when rec is set — times
// it as a "peerlink.call" span. Its counters are written only by the
// scheduler that owns the peer (serialized by the engine or driver lock)
// and read after the run.
type tracedPeer struct {
	inner fullPeer
	rec   *recorder
	calls peerCalls
	durs  []time.Duration
}

var _ fullPeer = (*tracedPeer)(nil)

// peerCall is one call in flight through a tracedPeer.
type peerCall struct {
	start time.Time
	end   func() // closes the call's span; nil when only counting
}

// enter counts a call and, when tracing, opens its span. Counting alone
// allocates nothing: a sweep pass makes millions of direct-mode calls.
func (p *tracedPeer) enter(method int) peerCall {
	p.calls[method]++
	if p.rec == nil {
		return peerCall{}
	}
	end := p.rec.begin("peerlink.call", -1)
	return peerCall{start: time.Now(), end: end}
}

func (p *tracedPeer) exit(c peerCall) {
	if c.end != nil {
		p.durs = append(p.durs, time.Since(c.start))
		c.end()
	}
}

func (p *tracedPeer) PeerName() string { return p.inner.PeerName() }

func (p *tracedPeer) GetMateJob(id job.ID) (bool, error) {
	c := p.enter(0)
	ok, err := p.inner.GetMateJob(id)
	p.exit(c)
	return ok, err
}

func (p *tracedPeer) GetMateStatus(id job.ID) (cosched.MateStatus, error) {
	c := p.enter(1)
	st, err := p.inner.GetMateStatus(id)
	p.exit(c)
	return st, err
}

func (p *tracedPeer) CanStartMate(id job.ID) (bool, error) {
	c := p.enter(2)
	ok, err := p.inner.CanStartMate(id)
	p.exit(c)
	return ok, err
}

func (p *tracedPeer) TryStartMate(id job.ID) (bool, error) {
	c := p.enter(3)
	ok, err := p.inner.TryStartMate(id)
	p.exit(c)
	return ok, err
}

func (p *tracedPeer) TryStartMateAt(id job.ID, at sim.Time) (bool, error) {
	c := p.enter(3)
	ok, err := p.inner.TryStartMateAt(id, at)
	p.exit(c)
	return ok, err
}

func (p *tracedPeer) StartMate(id job.ID) error {
	c := p.enter(4)
	err := p.inner.StartMate(id)
	p.exit(c)
	return err
}

func (p *tracedPeer) StartMateAt(id job.ID, at sim.Time) error {
	c := p.enter(4)
	err := p.inner.StartMateAt(id, at)
	p.exit(c)
	return err
}

func (p *tracedPeer) ReconcileMates(from string, views []cosched.MateView) ([]cosched.MateView, error) {
	c := p.enter(5)
	out, err := p.inner.ReconcileMates(from, views)
	p.exit(c)
	return out, err
}
