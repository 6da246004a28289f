// Package config defines the JSON configuration consumed by cmd/cosim and
// cmd/coschedd: a coupled-system description (domains, pools, policies,
// coscheduling settings, trace sources) that maps directly onto
// coupled.Options.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/queues"
	"cosched/internal/sim"
	"cosched/internal/trace"
	"cosched/internal/workload"
)

// Domain is the JSON form of one scheduling domain.
type Domain struct {
	Name         string `json:"name"`
	Nodes        int    `json:"nodes"`
	MinPartition int    `json:"min_partition,omitempty"`
	Policy       string `json:"policy,omitempty"`
	Backfilling  bool   `json:"backfilling"`
	BackfillMode string `json:"backfill_mode,omitempty"` // "easy" | "conservative"
	Estimator    string `json:"estimator,omitempty"`     // "walltime" | "user-average"

	// Cosched settings.
	CoschedEnabled  bool    `json:"cosched_enabled"`
	Scheme          string  `json:"scheme,omitempty"`          // "hold" | "yield"
	ReleaseMinutes  int64   `json:"release_minutes,omitempty"` // 0 = disabled
	MaxHeldFraction float64 `json:"max_held_fraction,omitempty"`
	MaxYields       int     `json:"max_yields,omitempty"`
	YieldBoost      bool    `json:"yield_boost,omitempty"`

	// Workload: either a trace file or a synthetic spec.
	TraceFile string     `json:"trace_file,omitempty"`
	Synthetic *Synthetic `json:"synthetic,omitempty"`

	// Queues optionally routes the domain's jobs through named submission
	// queues whose priorities scale the base policy (Cobalt-style).
	Queues []QueueSpec `json:"queues,omitempty"`
}

// QueueSpec is the JSON form of one submission queue.
type QueueSpec struct {
	Name        string  `json:"name"`
	MinNodes    int     `json:"min_nodes,omitempty"`
	MaxNodes    int     `json:"max_nodes,omitempty"`
	MaxWallMins int64   `json:"max_walltime_minutes,omitempty"`
	Priority    float64 `json:"priority,omitempty"`
	Default     bool    `json:"default,omitempty"`
}

// Synthetic requests a generated workload.
type Synthetic struct {
	System string  `json:"system"` // "intrepid" | "eureka"
	Jobs   int     `json:"jobs,omitempty"`
	Util   float64 `json:"util,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
}

// Pairing describes cross-domain job association.
type Pairing struct {
	DomainA       string  `json:"domain_a"`
	DomainB       string  `json:"domain_b"`
	WindowSeconds int64   `json:"window_seconds,omitempty"`
	Proportion    float64 `json:"proportion,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
}

// File is the top-level configuration document.
type File struct {
	Domains []Domain  `json:"domains"`
	Pairs   []Pairing `json:"pairs,omitempty"`
	Wire    bool      `json:"wire_protocol,omitempty"`
}

// Load parses a configuration file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if len(f.Domains) == 0 {
		return nil, fmt.Errorf("config: %s: no domains", path)
	}
	return &f, nil
}

// Build converts the configuration into coupled.Options, loading or
// generating each domain's workload and applying the pairings.
func (f *File) Build() (coupled.Options, error) {
	var opt coupled.Options
	opt.UseWireProtocol = f.Wire
	traces := make(map[string][]*job.Job, len(f.Domains))
	for _, d := range f.Domains {
		tr, err := d.buildTrace()
		if err != nil {
			return opt, fmt.Errorf("config: domain %q: %w", d.Name, err)
		}
		traces[d.Name] = tr
		cc := cosched.Config{
			Enabled:         d.CoschedEnabled,
			ReleaseInterval: sim.Duration(d.ReleaseMinutes) * sim.Minute,
			MaxHeldFraction: d.MaxHeldFraction,
			MaxYields:       d.MaxYields,
			YieldBoost:      d.YieldBoost,
		}
		if d.Scheme != "" {
			s, err := cosched.ParseScheme(d.Scheme)
			if err != nil {
				return opt, fmt.Errorf("config: domain %q: %w", d.Name, err)
			}
			cc.Scheme = s
		}
		dc := coupled.DomainConfig{
			Name:         d.Name,
			Nodes:        d.Nodes,
			MinPartition: d.MinPartition,
			Policy:       d.Policy,
			Backfilling:  d.Backfilling,
			BackfillMode: d.BackfillMode,
			Estimator:    d.Estimator,
			Cosched:      cc,
			Trace:        tr,
		}
		if len(d.Queues) > 0 {
			router, err := buildQueues(d, tr)
			if err != nil {
				return opt, fmt.Errorf("config: domain %q: %w", d.Name, err)
			}
			base, ok := policy.ByName(d.Policy)
			if !ok {
				return opt, fmt.Errorf("config: domain %q: unknown policy %q", d.Name, d.Policy)
			}
			dc.PolicyImpl = router.Policy(base)
		}
		opt.Domains = append(opt.Domains, dc)
	}
	for _, p := range f.Pairs {
		a, okA := traces[p.DomainA]
		b, okB := traces[p.DomainB]
		if !okA || !okB {
			return opt, fmt.Errorf("config: pairing references unknown domain %q/%q", p.DomainA, p.DomainB)
		}
		if p.Proportion > 0 {
			if _, err := workload.PairByProportion(workload.NewRNG(p.Seed+1), a, b, p.DomainA, p.DomainB, p.Proportion); err != nil {
				return opt, err
			}
		} else {
			window := sim.Duration(p.WindowSeconds)
			if window <= 0 {
				window = 2 * sim.Minute
			}
			workload.PairByWindow(a, b, p.DomainA, p.DomainB, window)
		}
	}
	return opt, nil
}

// buildQueues constructs a queue router for the domain and routes every
// trace job through it, rejecting configurations whose queues cannot admit
// part of the workload.
func buildQueues(d Domain, tr []*job.Job) (*queues.Router, error) {
	specs := make([]queues.Spec, len(d.Queues))
	for i, q := range d.Queues {
		specs[i] = queues.Spec{
			Name:        q.Name,
			MinNodes:    q.MinNodes,
			MaxNodes:    q.MaxNodes,
			MaxWalltime: sim.Duration(q.MaxWallMins) * sim.Minute,
			Priority:    q.Priority,
			Default:     q.Default,
		}
	}
	router, err := queues.NewRouter(specs)
	if err != nil {
		return nil, err
	}
	for _, j := range tr {
		if _, err := router.Route(j); err != nil {
			return nil, err
		}
	}
	return router, nil
}

// buildTrace loads or generates the domain's workload.
func (d Domain) buildTrace() ([]*job.Job, error) {
	switch {
	case d.TraceFile != "" && d.Synthetic != nil:
		return nil, fmt.Errorf("both trace_file and synthetic given")
	case d.TraceFile != "":
		_, jobs, err := trace.LoadFile(d.TraceFile)
		return jobs, err
	case d.Synthetic != nil:
		var spec workload.Spec
		switch d.Synthetic.System {
		case "intrepid":
			spec = workload.IntrepidSpec(d.Synthetic.Seed)
		case "eureka":
			spec = workload.EurekaSpec(d.Synthetic.Seed)
		default:
			return nil, fmt.Errorf("unknown synthetic system %q", d.Synthetic.System)
		}
		if d.Synthetic.Jobs > 0 {
			spec.Jobs = d.Synthetic.Jobs
		}
		jobs, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		if d.Synthetic.Util > 0 {
			if _, err := workload.ScaleToUtilization(jobs, d.Nodes, d.Synthetic.Util); err != nil {
				return nil, err
			}
		}
		return jobs, nil
	default:
		return nil, fmt.Errorf("no workload: set trace_file or synthetic")
	}
}
