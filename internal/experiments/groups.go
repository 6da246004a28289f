package experiments

import (
	"fmt"

	"cosched/internal/workload"
)

// The sweep runners compute their cells in two shapes: goroutines over
// individual (point, rep, cell) units (parallel.Map), and — when
// Config.Dist is set — whole *groups* computed by the Distributor and
// handed back as rows. A group is everything derived from one (point, rep)
// trace generation: the no-coscheduling baseline plus one cell per scheme
// combination. A group is named by its index alone, because whoever
// computes it regenerates the identical workload from the group's seed.
// Config.Dist is how bench/ feeds its traced cells through the sweep's own
// merge and render; nothing else in the tree sets it.

// SweepKind selects which sweep a group index refers to.
type SweepKind string

const (
	// KindLoad is the §V-D Eureka-load sweep (Figures 3–6).
	KindLoad SweepKind = "load"
	// KindProp is the §V-E paired-proportion sweep (Figures 7–10).
	KindProp SweepKind = "prop"
)

// sweepPoints returns the x-axis grid for a sweep kind.
func sweepPoints(kind SweepKind) ([]float64, error) {
	switch kind {
	case KindLoad:
		return LoadSweepUtils, nil
	case KindProp:
		return ProportionSweepPoints, nil
	}
	return nil, fmt.Errorf("experiments: unknown sweep kind %q", kind)
}

// groupSeed reproduces the per-(point, rep) trace seed used by the
// in-process snapshot builders; both must agree or a Distributor's cells
// would simulate different workloads than the sweep's own.
func groupSeed(kind SweepKind, cfg Config, ui, rep int) uint64 {
	if kind == KindProp {
		return cfg.Seed + uint64(ui*1000+rep*104729)
	}
	return cfg.Seed + uint64(ui*1000+rep*7919)
}

// NumGroups returns how many groups a sweep fans out: one per
// (sweep point, repetition).
func NumGroups(kind SweepKind, cfg Config) (int, error) {
	cfg = cfg.normalized()
	points, err := sweepPoints(kind)
	if err != nil {
		return 0, err
	}
	return len(points) * cfg.Reps, nil
}

// RowsPerGroup is how many CellRows one group produces: the baseline plus
// one cell per scheme combination.
func RowsPerGroup() int { return 1 + len(Combos) }

// CellRow is one unit's result in wire form: a baseline (Combo < 0) or a
// combo cell, tagged with its group and intra-group position so
// distResults can merge rows in deterministic unit order. All fields are
// plain values — encoding/json round-trips float64 exactly (shortest
// round-trip representation), so a row that was serialized merges to the
// same bits as one that was not.
type CellRow struct {
	Group int      `json:"group"`
	Combo int      `json:"combo"` // index into Combos; -1 = baseline
	Cell  Cell     `json:"cell,omitempty"`
	Base  Baseline `json:"base,omitempty"`
	Frac  float64  `json:"frac,omitempty"` // paired fraction (baseline rows, load sweep)
}

// RunSweepGroup computes every unit of group g exactly as the in-process
// sweep would: regenerate the (point, rep) trace pair from the group seed,
// freeze it, and materialize private jobs per cell from the shared
// snapshot. Rows come back in the serial unit order — baseline first, then
// Combos in figure order — so distResults' index-order merge replays the
// serial accumulation bit-for-bit.
func RunSweepGroup(kind SweepKind, cfg Config, g int) ([]CellRow, error) {
	cfg = cfg.normalized()
	points, err := sweepPoints(kind)
	if err != nil {
		return nil, err
	}
	if g < 0 || g >= len(points)*cfg.Reps {
		return nil, fmt.Errorf("experiments: group %d out of range [0,%d)", g, len(points)*cfg.Reps)
	}
	ui, rep := g/cfg.Reps, g%cfg.Reps
	seed := groupSeed(kind, cfg, ui, rep)

	var pair tracePair
	switch kind {
	case KindLoad:
		intr, eur, frac, err := loadSweepTraces(cfg, seed, points[ui])
		if err != nil {
			return nil, err
		}
		pair = tracePair{intr: workload.Capture(intr), eur: workload.Capture(eur), frac: frac}
	case KindProp:
		intr, eur, err := proportionTraces(cfg, seed, points[ui])
		if err != nil {
			return nil, err
		}
		pair = tracePair{intr: workload.Capture(intr), eur: workload.Capture(eur)}
	}

	buf := cellBufPool.Get().(*cellBuffers)
	defer cellBufPool.Put(buf)
	rows := make([]CellRow, 0, RowsPerGroup())
	for combo := -1; combo < len(Combos); combo++ {
		intr, eur := pair.materialize(buf)
		row := CellRow{Group: g, Combo: combo}
		if combo < 0 {
			row.Base = Baseline{X: points[ui]}
			row.Frac = pair.frac
			if err := runBaseline(&row.Base, cfg, intr, eur); err != nil {
				return nil, fmt.Errorf("group %d baseline: %w", g, err)
			}
		} else {
			c := Combos[combo]
			row.Cell = Cell{Combo: c, X: points[ui]}
			if err := runCell(&row.Cell, cfg, c, intr, eur); err != nil {
				return nil, fmt.Errorf("group %d combo %s: %w", g, c.Label(), err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Distributor computes every group of a sweep and returns the rows indexed
// by group. Implementations may compute groups in any order or more than
// once; the contract is only that slot g holds the RowsPerGroup() rows
// RunSweepGroup(kind, cfg, g) produces.
type Distributor interface {
	RunGroups(kind SweepKind, cfg Config, numGroups int) ([][]CellRow, error)
}

// distResults fans the sweep out through cfg.Dist and flattens the
// returned group rows into the unit-indexed result slice the merge loops
// expect: group-ascending, baseline-then-combos within each group — the
// exact enumeration order of the units slice, so merging by index is
// byte-identical to the in-process path.
func distResults(kind SweepKind, cfg Config) ([]*loadResult, error) {
	numGroups, err := NumGroups(kind, cfg)
	if err != nil {
		return nil, err
	}
	groups, err := cfg.Dist.RunGroups(kind, cfg, numGroups)
	if err != nil {
		return nil, err
	}
	if len(groups) != numGroups {
		return nil, fmt.Errorf("experiments: distributor returned %d groups, want %d", len(groups), numGroups)
	}
	results := make([]*loadResult, 0, numGroups*RowsPerGroup())
	for g, rows := range groups {
		if len(rows) != RowsPerGroup() {
			return nil, fmt.Errorf("experiments: group %d has %d rows, want %d", g, len(rows), RowsPerGroup())
		}
		for i, row := range rows {
			if row.Group != g || row.Combo != i-1 {
				return nil, fmt.Errorf("experiments: group %d row %d mislabeled (group=%d combo=%d)",
					g, i, row.Group, row.Combo)
			}
			results = append(results, &loadResult{cell: row.Cell, base: row.Base, frac: row.Frac})
		}
	}
	return results, nil
}
