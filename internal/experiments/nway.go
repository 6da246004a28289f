package experiments

import (
	"fmt"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// NWayWidths are the co-start group widths swept by the N-way extension
// experiment (2 reproduces the paper's pairs; 3 and 4 are the §VI future
// work).
var NWayWidths = []int{2, 3, 4}

// nwayDomain describes one of the four heterogeneous machines in the
// extension experiment.
type nwayDomain struct {
	name  string
	nodes int
	jobs  int // background jobs per month-scale run before JobFactor
	sizes []workload.SizeClass
}

var nwayDomains = []nwayDomain{
	{"compute", 4096, 4000, []workload.SizeClass{
		{Nodes: 64, Weight: 0.4}, {Nodes: 128, Weight: 0.3},
		{Nodes: 256, Weight: 0.2}, {Nodes: 512, Weight: 0.1}}},
	{"gpu", 512, 2500, []workload.SizeClass{
		{Nodes: 8, Weight: 0.4}, {Nodes: 16, Weight: 0.3},
		{Nodes: 32, Weight: 0.2}, {Nodes: 64, Weight: 0.1}}},
	{"analysis", 100, 2000, []workload.SizeClass{
		{Nodes: 1, Weight: 0.3}, {Nodes: 4, Weight: 0.3},
		{Nodes: 8, Weight: 0.25}, {Nodes: 16, Weight: 0.15}}},
	{"viz", 64, 1500, []workload.SizeClass{
		{Nodes: 1, Weight: 0.4}, {Nodes: 2, Weight: 0.3},
		{Nodes: 4, Weight: 0.2}, {Nodes: 8, Weight: 0.1}}},
}

// NWayRow is one (width, scheme) cell of the extension sweep.
type NWayRow struct {
	Width  int
	Scheme cosched.Scheme

	// GroupSync is the average extra wait (minutes) a group member
	// spent after first becoming ready, across all members.
	GroupSync float64
	// GroupStartSpread must be 0: all members of every group started at
	// one instant.
	GroupStartSpread  float64
	AvgWait           float64 // minutes, averaged over domains
	LossNH            float64 // node-hours lost to holds, summed
	Stuck             int
	CoStartViolations int
}

// NWaySweep is the N-way extension study.
type NWaySweep struct {
	Config       Config
	BaselineWait float64 // avg wait with no groups, averaged over domains
	Rows         []NWayRow
}

// nwayUnit is one cell of the extension sweep; width 0 is the no-groups
// baseline.
type nwayUnit struct {
	width  int
	scheme cosched.Scheme
}

// nwayWorkload is one cell's four traces and the co-start groups linked
// across them.
type nwayWorkload struct {
	traces [][]*job.Job
	groups [][]*job.Job
}

// RunNWaySweep measures co-start group widths 2–4 across four
// heterogeneous domains under both schemes. The grid is one group per
// (width, scheme) — plus the no-groups baseline — with a single cell each:
// the linked groups are part of the workload, so no two cells share one,
// and the cell simulates the group's traces directly instead of a frozen
// copy. N-way takes no repetitions (Config.Reps does not apply).
func RunNWaySweep(cfg Config) (*NWaySweep, error) {
	cfg = cfg.normalized()
	units := []nwayUnit{{0, cosched.Yield}} // index 0: the no-groups baseline
	for _, width := range NWayWidths {
		for _, scheme := range schemes {
			units = append(units, nwayUnit{width, scheme})
		}
	}
	rows, err := runGrid(cfg, len(units), 1,
		func(g int) (*nwayWorkload, error) { return nwayTraces(cfg, units[g].width) },
		func(g, _ int, w *nwayWorkload) (NWayRow, error) { return runNWayCell(cfg, units[g], w) })
	if err != nil {
		return nil, err
	}
	return &NWaySweep{Config: cfg, BaselineWait: rows[0].AvgWait, Rows: rows[1:]}, nil
}

// nwayTraces builds the four-domain workload and links groups of the given
// width (0 = baseline, no groups).
func nwayTraces(cfg Config, width int) (*nwayWorkload, error) {
	traces := make([][]*job.Job, len(nwayDomains))
	for i, d := range nwayDomains {
		spec := workload.Spec{
			Name: d.name, Jobs: scaleCount(d.jobs, cfg.JobFactor), Span: 30 * sim.Day,
			Sizes:     d.sizes,
			RuntimeMu: 6.6, RuntimeSigma: 1.0,
			MinRuntime: 2 * sim.Minute, MaxRuntime: 6 * sim.Hour,
			WallFactorMin: 1.2, WallFactorMax: 2.5,
			Seed: cfg.Seed + uint64(i*97),
		}
		tr, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		if _, err := workload.ScaleToUtilization(tr, d.nodes, 0.55); err != nil {
			return nil, err
		}
		traces[i] = tr
	}

	// Link groups: 5% of the first domain's jobs anchor a group spanning
	// the first `width` domains, members chosen nearest-in-time.
	var groups [][]*job.Job
	if width >= 2 {
		rng := workload.NewRNG(cfg.Seed + 1009)
		anchors := rng.Perm(len(traces[0]))
		wantGroups := len(traces[0]) / 20
		for _, ai := range anchors {
			if len(groups) >= wantGroups {
				break
			}
			anchor := traces[0][ai]
			if anchor.Paired() {
				continue
			}
			members := []*job.Job{anchor}
			domains := []string{nwayDomains[0].name}
			ok := true
			for d := 1; d < width; d++ {
				m := nearestUnpairedJob(traces[d], anchor.SubmitTime, 2*sim.Hour)
				if m == nil {
					ok = false
					break
				}
				// Mark immediately so the next domain's search cannot
				// pick an already-claimed job (LinkGroup links at the
				// end).
				members = append(members, m)
				domains = append(domains, nwayDomains[d].name)
			}
			if !ok {
				continue
			}
			if err := workload.LinkGroup(members, domains); err != nil {
				return nil, err
			}
			groups = append(groups, members)
		}
	}
	return &nwayWorkload{traces, groups}, nil
}

// runNWayCell simulates one unit's workload and measures its groups.
func runNWayCell(cfg Config, u nwayUnit, w *nwayWorkload) (NWayRow, error) {
	row := NWayRow{Width: u.width, Scheme: u.scheme}
	cc := cosched.DefaultConfig(u.scheme)
	cc.ReleaseInterval = cfg.ReleaseInterval
	var dcs []coupled.DomainConfig
	for i, d := range nwayDomains {
		dcs = append(dcs, coupled.DomainConfig{
			Name: d.name, Nodes: d.nodes, Backfilling: true,
			Cosched: cc, Trace: w.traces[i], SchedCore: cfg.SchedCore,
		})
	}
	s, err := coupled.New(coupled.Options{Domains: dcs})
	if err != nil {
		return row, err
	}
	res := s.Run()
	row.Stuck = res.StuckJobs
	row.CoStartViolations = res.CoStartViolations
	for _, d := range nwayDomains {
		rep := res.Reports[d.name]
		row.AvgWait += rep.Wait.Mean / float64(len(nwayDomains))
		row.LossNH += rep.LostNodeHours
	}
	var syncSum float64
	var members int
	for _, g := range w.groups {
		var first sim.Time
		for i, m := range g {
			syncSum += float64(m.SyncTime()) / 60
			members++
			if i == 0 || m.StartTime < first {
				first = m.StartTime
			}
		}
		for _, m := range g {
			row.GroupStartSpread += float64(m.StartTime - first)
		}
	}
	if members > 0 {
		row.GroupSync = syncSum / float64(members)
	}
	return row, nil
}

// nearestUnpairedJob returns the unpaired job in tr closest in submit time
// to t (within maxGap), or nil.
func nearestUnpairedJob(tr []*job.Job, t sim.Time, maxGap sim.Duration) *job.Job {
	var best *job.Job
	var bestGap sim.Duration = maxGap + 1
	for _, j := range tr {
		if j.Paired() {
			continue
		}
		g := j.SubmitTime - t
		if g < 0 {
			g = -g
		}
		if g < bestGap {
			best, bestGap = j, g
		}
	}
	if bestGap > maxGap {
		return nil
	}
	return best
}

// Table renders the sweep.
func (s *NWaySweep) Table() *metrics.Table {
	t := metrics.NewTable("N-way coscheduling extension (§VI future work): group width sweep",
		"width", "scheme", "group_sync_min", "avg_wait_min", "wait_vs_base", "hold_loss_nh", "spread", "viol", "stuck")
	for _, r := range s.Rows {
		t.AddRow(fmt.Sprintf("%d", r.Width), r.Scheme.String(),
			fmt.Sprintf("%.1f", r.GroupSync),
			fmt.Sprintf("%.1f", r.AvgWait),
			fmt.Sprintf("%+.1f", r.AvgWait-s.BaselineWait),
			fmt.Sprintf("%.0f", r.LossNH),
			fmt.Sprintf("%.0f", r.GroupStartSpread),
			fmt.Sprintf("%d", r.CoStartViolations),
			fmt.Sprintf("%d", r.Stuck))
	}
	t.Caption = fmt.Sprintf("baseline (no groups) avg wait: %.1f min; spread must be 0 (all members co-start)", s.BaselineWait)
	return t
}
