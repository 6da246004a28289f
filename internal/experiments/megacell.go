package experiments

import (
	"fmt"

	"cosched/internal/workload"
)

// MegaTraces is one frozen giant workload instance for a single-cell
// stress run (bench/'s mega_cell): the Intrepid trace scaled to a
// requested job count (paper scale is 9,219 jobs/month; a million-job
// cell packs ~108 months of arrivals into the same span), the matching
// Eureka trace at the target utilization, both captured as immutable
// snapshots so the simulated cell exercises the exact copy-on-write
// materialization path the sweeps use.
type MegaTraces struct {
	pair *tracePair
	// IntrepidJobs and EurekaJobs are the realized trace lengths (the
	// Intrepid count can differ from the request by rounding).
	IntrepidJobs, EurekaJobs int
	// PairedFraction is the fraction of Intrepid jobs paired by the
	// 2-minute submission window.
	PairedFraction float64
	// EurekaUtil is the offered Eureka load the traces were built for.
	EurekaUtil float64
}

// BuildMegaTraces generates and freezes a load-sweep-shaped trace pair
// with the Intrepid trace scaled to intrepidJobs jobs. Generation is
// deliberately separate from Run so callers can time and profile the two
// phases independently.
func BuildMegaTraces(cfg Config, intrepidJobs int, eurekaUtil float64) (*MegaTraces, error) {
	cfg = cfg.normalized()
	if intrepidJobs <= 0 {
		return nil, fmt.Errorf("megacell: intrepid job count must be positive, got %d", intrepidJobs)
	}
	base := workload.IntrepidSpec(cfg.Seed).Jobs
	cfg.JobFactor = float64(intrepidJobs) / float64(base)
	intr, eur, err := loadSweepTraces(cfg, cfg.Seed, eurekaUtil)
	pair, err := freezePair(intr, eur, err)
	if err != nil {
		return nil, err
	}
	return &MegaTraces{
		pair:           pair,
		IntrepidJobs:   len(intr),
		EurekaJobs:     len(eur),
		PairedFraction: workload.PairedFraction(intr),
		EurekaUtil:     eurekaUtil,
	}, nil
}

// Run materializes private jobs from the frozen snapshots and simulates
// one cell under the given scheme combination, exactly as a sweep cell
// would. The materialization arena is NOT drawn from the shared cell-buffer
// pool: a million-job arena returned to the pool would pin hundreds of MiB
// for every later sweep, so the mega cell owns a private one that dies with
// the call.
func (t *MegaTraces) Run(cfg Config, combo Combo) (*Cell, error) {
	cfg = cfg.normalized()
	intr, eur := t.pair.materialize(new(cellBuffers))
	res, err := simulatePair(cfg, cfg.setup(combo), intr, eur)
	if err != nil {
		return nil, err
	}
	c := newCell(res)
	c.Combo, c.X = combo, t.EurekaUtil
	return &c, nil
}
