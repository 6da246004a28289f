package experiments

import (
	"fmt"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// LoadSweepUtils are the Eureka system-utilization points of Figures 3–6.
var LoadSweepUtils = []float64{0.25, 0.50, 0.75}

// ProportionSweepPoints are the paired-job proportions of Figures 7–10.
var ProportionSweepPoints = []float64{0.025, 0.05, 0.10, 0.20, 0.33}

// PairWindow is the §V-D association rule: jobs submitted within 2 minutes
// of each other on the two machines are paired.
const PairWindow = 2 * sim.Minute

// PairMaxGap bounds how far apart in submission time the members of a
// synthetic pair may be (proportion sweep and validation grid). Associated
// jobs are submitted together in practice; an unbounded rank-wise match
// across traces with slightly different spans would create pairs arriving
// days apart and grossly inflate hold durations.
const PairMaxGap = 2 * sim.Hour

// SweepKind names one of the paper's two x-axes.
type SweepKind string

const (
	// KindLoad is the §V-D Eureka-load sweep (Figures 3–6).
	KindLoad SweepKind = "load"
	// KindProp is the §V-E paired-proportion sweep (Figures 7–10).
	KindProp SweepKind = "prop"
)

// sweepSpec is everything that differs between the two sweeps: the x-axis
// grid, how a group's traces are made and seeded, and how the four figures
// are numbered and labelled.
type sweepSpec struct {
	kind   SweepKind
	points []float64
	// repStride spreads repetitions over the seed space: group (point p,
	// rep r) draws its traces from cfg.Seed + p*1000 + r*repStride.
	repStride int
	traces    func(cfg Config, seed uint64, x float64) (intr, eur []*job.Job, err error)

	// firstFig numbers the wait figure; slowdown, sync and loss follow.
	firstFig int
	xName    string // the tables' x column
	by       string // how titles name the axis
	label    func(x float64) string
	// waitStderr adds the rep-to-rep standard error column the paper's
	// Figure 3 tables carry and its Figure 7 tables do not.
	waitStderr bool
	// slowdownFmt is the value-label format of the slowdown charts.
	slowdownFmt string
}

var sweepSpecs = map[SweepKind]*sweepSpec{
	KindLoad: {
		kind: KindLoad, points: LoadSweepUtils, repStride: 7919, traces: loadSweepTraces,
		firstFig: 3, xName: "eureka_util", by: "Eureka load",
		label:      func(u float64) string { return fmt.Sprintf("%.2f", u) },
		waitStderr: true, slowdownFmt: "%.1f",
	},
	KindProp: {
		kind: KindProp, points: ProportionSweepPoints, repStride: 104729, traces: proportionTraces,
		firstFig: 7, xName: "proportion", by: "paired proportion",
		label: propLabel, slowdownFmt: "%.2f",
	},
}

// loadSweepTraces builds one paired (Intrepid, Eureka) trace instance for
// the load sweep: Eureka at the given utilization, pairs formed by the
// 2-minute submission window.
func loadSweepTraces(cfg Config, seed uint64, util float64) (intr, eur []*job.Job, err error) {
	intr, err = intrepidTrace(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	eur, err = eurekaTraceAtUtil(cfg, seed+1, util)
	if err != nil {
		return nil, nil, err
	}
	workload.PairByWindow(
		workload.Eligible(intr, MaxPairedIntrepidNodes),
		workload.Eligible(eur, MaxPairedEurekaNodes),
		DomIntrepid, DomEureka, PairWindow)
	return intr, eur, nil
}

// proportionTraces builds one paired trace instance for a proportion point:
// Intrepid's high-load trace against the §V-E special Eureka workload.
func proportionTraces(cfg Config, seed uint64, prop float64) (intr, eur []*job.Job, err error) {
	intr, err = intrepidTrace(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	eur, err = eurekaProportionTrace(cfg, seed+1, len(intr))
	if err != nil {
		return nil, nil, err
	}
	// The proportion is of ALL jobs (the paper tunes "the proportion of
	// paired jobs"); the pairs themselves come from the size-eligible
	// subsets.
	pairNearest(seed, intr, eur, int(float64(len(intr))*prop+0.5))
	return intr, eur, nil
}

// propLabel renders a proportion the way the paper labels its x-axis.
func propLabel(p float64) string {
	//simlint:allow R5 p is a ProportionSweepPoints grid constant passed through unchanged; identity match, no arithmetic
	if p == 0.025 {
		return "2.5%"
	}
	return fmt.Sprintf("%.0f%%", p*100)
}

// freeze generates and freezes the traces of group g = point*Reps + rep.
func (sp *sweepSpec) freeze(cfg Config, g int) (*tracePair, error) {
	point, rep := g/cfg.Reps, g%cfg.Reps
	seed := cfg.Seed + uint64(point*1000+rep*sp.repStride)
	return freezePair(sp.traces(cfg, seed, sp.points[point]))
}

// row simulates cell c of group g on the group's private traces: c == 0
// is the no-coscheduling baseline, c-1 indexes Combos otherwise.
func (sp *sweepSpec) row(cfg Config, g, c int, intr, eur []*job.Job) (CellRow, error) {
	row := CellRow{Group: g, Combo: c - 1}
	ps, label := pairSetup{}, "baseline"
	if c > 0 {
		ps, label = cfg.setup(Combos[c-1]), Combos[c-1].Label()
	}
	res, err := simulatePair(cfg, ps, intr, eur)
	if err != nil {
		return row, fmt.Errorf("%s sweep group %d %s: %w", sp.kind, g, label, err)
	}
	if c == 0 {
		row.Base = newBaseline(res)
		row.Frac = workload.PairedFraction(intr)
	} else {
		row.Cell = newCell(res)
	}
	return row, nil
}

// RowsPerGroup is how many CellRows one group produces: the baseline plus
// one cell per scheme combination.
func RowsPerGroup() int { return 1 + len(Combos) }

// CellRow is one sweep cell's single-repetition result in wire form: a
// baseline (Combo < 0) or a combo cell, tagged with its group and
// intra-group position so rows from a Distributor can be checked against
// their slots. All fields are plain values — encoding/json round-trips
// float64 exactly (shortest round-trip representation), so a row that was
// serialized merges to the same bits as one that was not.
type CellRow struct {
	Group int      `json:"group"`
	Combo int      `json:"combo"` // index into Combos; -1 = baseline
	Cell  Cell     `json:"cell,omitempty"`
	Base  Baseline `json:"base,omitempty"`
	Frac  float64  `json:"frac,omitempty"` // paired fraction of Intrepid jobs (baseline rows)
}

// add and average make CellRow a repMean: a row carries a Cell or a
// Baseline and the other stays zero, so both are folded unconditionally.
func (r *CellRow) add(o *CellRow) {
	r.Cell.add(&o.Cell)
	r.Base.add(&o.Base)
}

func (r *CellRow) average(reps int) {
	r.Cell.average(reps)
	r.Base.average(reps)
}

// Distributor computes every group of a sweep in place of runGrid and
// returns the rows indexed by group; bench/ feeds its traced cells through
// the sweep's own merge and render this way, and nothing else in the tree
// sets Config.Dist. Group g is point g/Reps of the kind's grid at
// repetition g%Reps. Implementations may compute groups in any order; the
// contract is that slot g holds RowsPerGroup() rows — the baseline, then
// Combos in figure order — each what simulating that cell on the group's
// traces yields.
type Distributor interface {
	RunGroups(kind SweepKind, cfg Config, numGroups int) ([][]CellRow, error)
}

// distRows fans the sweep out through cfg.Dist and flattens the returned
// group rows into runGrid's layout — group-ascending, baseline-then-combos
// within each group — refusing rows that do not fill their slots exactly.
func distRows(kind SweepKind, cfg Config, numGroups int) ([]CellRow, error) {
	groups, err := cfg.Dist.RunGroups(kind, cfg, numGroups)
	if err != nil {
		return nil, err
	}
	if len(groups) != numGroups {
		return nil, fmt.Errorf("experiments: distributor returned %d groups, want %d", len(groups), numGroups)
	}
	flat := make([]CellRow, 0, numGroups*RowsPerGroup())
	for g, rows := range groups {
		if len(rows) != RowsPerGroup() {
			return nil, fmt.Errorf("experiments: group %d has %d rows, want %d", g, len(rows), RowsPerGroup())
		}
		for i, row := range rows {
			if row.Group != g || row.Combo != i-1 {
				return nil, fmt.Errorf("experiments: group %d row %d mislabeled (group=%d combo=%d)",
					g, i, row.Group, row.Combo)
			}
		}
		flat = append(flat, rows...)
	}
	return flat, nil
}

// Sweep holds the data behind one family of four figures — 3–6 for the
// load sweep, 7–10 for the proportion sweep: per sweep point, a baseline
// plus one cell per scheme combination, each averaged over Config.Reps.
type Sweep struct {
	Config Config
	Kind   SweepKind
	// Points is the x-axis grid: Eureka utilizations or paired proportions.
	// A load sweep also has it as Utils and a proportion sweep as
	// Proportions, the names bench/ reads; the other one stays nil.
	Points, Utils, Proportions []float64
	Baselines                  map[float64]*Baseline
	Cells                      []*Cell // ordered: point-major, combo-minor
	// PairedFraction records the resulting proportion of paired Intrepid
	// jobs per point (the paper reports 5–10% for the load sweep).
	PairedFraction map[float64]float64

	spec *sweepSpec
	// byKey indexes Cells: the figure tables call Cell in O(points × combos)
	// loops, which a scan would make O(cells²) overall.
	byKey map[cellKey]*Cell
}

// cellKey indexes sweep cells by (sweep point, combo). The point is copied
// verbatim from the grid, so the float is matched by identity.
type cellKey struct {
	x     float64
	combo Combo
}

// Cell returns the sweep cell for (point, combo), or nil.
func (s *Sweep) Cell(x float64, combo Combo) *Cell { return s.byKey[cellKey{x, combo}] }

// RunLoadSweep reproduces the §V-D experiment: Intrepid's trace fixed at
// high load, Eureka's load varied, pairs formed by the 2-minute submission
// window, each (util, combo) cell simulated Reps times.
func RunLoadSweep(cfg Config) (*Sweep, error) { return runSweep(sweepSpecs[KindLoad], cfg) }

// RunProportionSweep reproduces the §V-E experiment: Intrepid uses the same
// high-load trace as the load sweep, Eureka the special workload (same job
// count and span as Intrepid, utilization ≈ 0.5), and the share of paired
// jobs is varied.
func RunProportionSweep(cfg Config) (*Sweep, error) { return runSweep(sweepSpecs[KindProp], cfg) }

// runSweep is the one sweep loop: a grid of (point, rep) groups, each
// generating and freezing its trace pair once, × RowsPerGroup() cells, each
// simulating on private jobs materialized from the group's snapshots; the
// rows are then averaged over reps in index order (see meanOverReps).
func runSweep(sp *sweepSpec, cfg Config) (*Sweep, error) {
	cfg = cfg.normalized()
	s := &Sweep{
		Config: cfg, Kind: sp.kind, Points: sp.points, spec: sp,
		Baselines:      make(map[float64]*Baseline, len(sp.points)),
		PairedFraction: make(map[float64]float64, len(sp.points)),
		byKey:          make(map[cellKey]*Cell, len(sp.points)*len(Combos)),
	}
	if sp.kind == KindLoad {
		s.Utils = sp.points
	} else {
		s.Proportions = sp.points
	}

	groups, cells := len(sp.points)*cfg.Reps, RowsPerGroup()
	var rows []CellRow
	var err error
	if cfg.Dist != nil {
		rows, err = distRows(sp.kind, cfg, groups)
	} else {
		rows, err = runGrid(cfg, groups, cells,
			func(g int) (*tracePair, error) { return sp.freeze(cfg, g) },
			onPair(func(g, c int, intr, eur []*job.Job) (CellRow, error) { return sp.row(cfg, g, c, intr, eur) }))
	}
	if err != nil {
		return nil, err
	}

	// The paired fraction is summed as frac/Reps per repetition, the way it
	// always was, rather than through meanOverReps: the two round
	// differently once Reps > 2 and the value is printed.
	for g := 0; g < groups; g++ {
		s.PairedFraction[sp.points[g/cfg.Reps]] += rows[g*cells].Frac / float64(cfg.Reps)
	}
	mean := meanOverReps(rows, cfg.Reps, cells)
	for pi, x := range sp.points {
		at := mean[pi*cells:]
		base := &at[0].Base
		base.X = x
		s.Baselines[x] = base
		for ci, combo := range Combos {
			c := &at[1+ci].Cell
			c.Combo, c.X = combo, x
			s.Cells = append(s.Cells, c)
			s.byKey[cellKey{x, combo}] = c
		}
	}
	return s, nil
}

// panels starts the (a) Intrepid and (b) Eureka tables of the sweep's n-th
// figure (0 = wait … 3 = loss).
func (s *Sweep) panels(n int, what string, cols ...string) (intrepid, eureka *metrics.Table) {
	fig := s.spec.firstFig + n
	return metrics.NewTable(fmt.Sprintf("Figure %d(a): Intrepid %s", fig, what), cols...),
		metrics.NewTable(fmt.Sprintf("Figure %d(b): Eureka %s", fig, what), cols...)
}

// schemes is hold then yield, the order every table and chart lists them in.
var schemes = []cosched.Scheme{cosched.Hold, cosched.Yield}

// waitTables renders "Scheduling performance (avg. wait)" — Figure 3 or 7,
// panels (a) and (b).
func (s *Sweep) waitTables() (intrepid, eureka *metrics.Table) {
	cols := []string{s.spec.xName, "combo", "cosched"}
	if s.spec.waitStderr {
		cols = append(cols, "stderr")
	}
	intrepid, eureka = s.panels(0, "avg. wait (minutes) by "+s.spec.by, append(cols, "base", "difference")...)
	for _, x := range s.Points {
		base := s.Baselines[x]
		for _, combo := range Combos {
			c := s.Cell(x, combo)
			row := func(wait, baseWait float64, samples []float64) []string {
				r := []string{s.spec.label(x), combo.Label(), fmtMin(wait)}
				if s.spec.waitStderr {
					r = append(r, fmtErr(samples))
				}
				return append(r, fmtMin(baseWait), fmtMin(wait-baseWait))
			}
			intrepid.AddRow(row(c.IntrepidWait, base.IntrepidWait, c.IntrepidWaitSamples)...)
			eureka.AddRow(row(c.EurekaWait, base.EurekaWait, c.EurekaWaitSamples)...)
		}
	}
	return intrepid, eureka
}

// slowdownTables renders "Scheduling performance (avg. slowdown)" — Figure
// 4 or 8.
func (s *Sweep) slowdownTables() (intrepid, eureka *metrics.Table) {
	intrepid, eureka = s.panels(1, "avg. slowdown by "+s.spec.by,
		s.spec.xName, "combo", "cosched", "base", "difference")
	for _, x := range s.Points {
		base := s.Baselines[x]
		for _, combo := range Combos {
			c := s.Cell(x, combo)
			intrepid.AddRow(s.spec.label(x), combo.Label(),
				fmtSd(c.IntrepidSlowdown), fmtSd(base.IntrepidSlowdown),
				fmtSd(c.IntrepidSlowdown-base.IntrepidSlowdown))
			eureka.AddRow(s.spec.label(x), combo.Label(),
				fmtSd(c.EurekaSlowdown), fmtSd(base.EurekaSlowdown),
				fmtSd(c.EurekaSlowdown-base.EurekaSlowdown))
		}
	}
	return intrepid, eureka
}

// syncTables renders "Average paired job synchronization time" — Figure 5
// or 9. Rows are grouped by (point, remote scheme) with one column per
// local scheme, matching the paper's x-axis.
func (s *Sweep) syncTables() (intrepid, eureka *metrics.Table) {
	intrepid, eureka = s.panels(2, "avg. paired-job sync time (minutes)",
		s.spec.xName+"/remote", "local=hold", "local=yield")
	for _, x := range s.Points {
		// Intrepid's remote machine is Eureka: group by Eureka's scheme,
		// compare Intrepid's local hold vs yield.
		for _, remote := range schemes {
			h := s.Cell(x, Combo{Intrepid: cosched.Hold, Eureka: remote})
			y := s.Cell(x, Combo{Intrepid: cosched.Yield, Eureka: remote})
			intrepid.AddRow(s.spec.label(x)+"/"+remote.Short(),
				fmtMin(h.IntrepidSync), fmtMin(y.IntrepidSync))
		}
		// Eureka's remote machine is Intrepid.
		for _, remote := range schemes {
			h := s.Cell(x, Combo{Intrepid: remote, Eureka: cosched.Hold})
			y := s.Cell(x, Combo{Intrepid: remote, Eureka: cosched.Yield})
			eureka.AddRow(s.spec.label(x)+"/"+remote.Short(),
				fmtMin(h.EurekaSync), fmtMin(y.EurekaSync))
		}
	}
	return intrepid, eureka
}

// lossTables renders "Service unit loss" — Figure 6 or 10: node-hours lost
// to holding plus the corresponding lost utilization rate, for the cells
// where the local machine uses hold.
func (s *Sweep) lossTables() (intrepid, eureka *metrics.Table) {
	intrepid, eureka = s.panels(3, "service-unit loss (local scheme = hold)",
		s.spec.xName+"/remote", "node_hours", "lost_util_%")
	for _, x := range s.Points {
		for _, remote := range schemes {
			c := s.Cell(x, Combo{Intrepid: cosched.Hold, Eureka: remote})
			intrepid.AddRow(s.spec.label(x)+"/"+remote.Short(),
				fmt.Sprintf("%.0f", c.IntrepidLossNH),
				fmt.Sprintf("%.2f", c.IntrepidLossPct))
		}
		for _, remote := range schemes {
			c := s.Cell(x, Combo{Intrepid: remote, Eureka: cosched.Hold})
			eureka.AddRow(s.spec.label(x)+"/"+remote.Short(),
				fmt.Sprintf("%.0f", c.EurekaLossNH),
				fmt.Sprintf("%.2f", c.EurekaLossPct))
		}
	}
	return intrepid, eureka
}

// The paper's figure numbers, as cmd/experiments and bench/ call them. A
// sweep numbers its own figures, so Fig3Table and Fig7Table are one method:
// a load sweep renders it as Figure 3, a proportion sweep as Figure 7.
func (s *Sweep) Fig3Table() (intrepid, eureka *metrics.Table)  { return s.waitTables() }
func (s *Sweep) Fig4Table() (intrepid, eureka *metrics.Table)  { return s.slowdownTables() }
func (s *Sweep) Fig5Table() (intrepid, eureka *metrics.Table)  { return s.syncTables() }
func (s *Sweep) Fig6Table() (intrepid, eureka *metrics.Table)  { return s.lossTables() }
func (s *Sweep) Fig7Table() (intrepid, eureka *metrics.Table)  { return s.waitTables() }
func (s *Sweep) Fig8Table() (intrepid, eureka *metrics.Table)  { return s.slowdownTables() }
func (s *Sweep) Fig9Table() (intrepid, eureka *metrics.Table)  { return s.syncTables() }
func (s *Sweep) Fig10Table() (intrepid, eureka *metrics.Table) { return s.lossTables() }
