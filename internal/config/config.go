// Package config defines the JSON configuration consumed by cmd/cosim: a
// coupled-system description (domains, pools, policies, coscheduling
// settings, trace sources) that maps directly onto coupled.Options.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/policy"
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
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a misspelt key is an error naming it, not a default
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("config: parse %s: data after the top-level object", path)
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
		var dc coupled.DomainConfig
		if err == nil {
			dc, err = d.DomainConfig(tr)
		}
		if err != nil {
			return opt, fmt.Errorf("config: domain %q: %w", d.Name, err)
		}
		traces[d.Name] = tr
		opt.Domains = append(opt.Domains, dc)
	}
	for _, p := range f.Pairs {
		a, okA := traces[p.DomainA]
		b, okB := traces[p.DomainB]
		if !okA || !okB {
			return opt, fmt.Errorf("config: pairing references unknown domain %q/%q", p.DomainA, p.DomainB)
		}
		if p.DomainA == p.DomainB {
			return opt, fmt.Errorf("config: pairing of domain %q with itself: a pair's halves run on two domains", p.DomainA)
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

// DomainConfig converts the domain's scheduling settings into the
// coupled.DomainConfig that coupled.NewManager builds, running trace tr. A
// daemon passes nil, as its jobs arrive over admin; queues are refused then,
// because their routing is computed from the trace.
func (d Domain) DomainConfig(tr []*job.Job) (coupled.DomainConfig, error) {
	sch, err := cosched.ParseScheme(d.Scheme)
	if err != nil {
		return coupled.DomainConfig{}, err
	}
	pol, ok := policy.ByName(d.Policy)
	if !ok {
		return coupled.DomainConfig{}, fmt.Errorf("unknown policy %q", d.Policy)
	}
	if len(d.Queues) > 0 {
		if tr == nil {
			return coupled.DomainConfig{}, fmt.Errorf(`"queues" needs a trace: queue routing is computed from the domain's workload`)
		}
		if pol, err = routeQueues(d.Queues, tr, pol); err != nil {
			return coupled.DomainConfig{}, err
		}
	}
	return coupled.DomainConfig{
		Name:         d.Name,
		Nodes:        d.Nodes,
		MinPartition: d.MinPartition,
		Policy:       pol,
		Backfilling:  d.Backfilling,
		BackfillMode: d.BackfillMode,
		Estimator:    d.Estimator,
		Cosched: cosched.Config{
			Enabled:         d.CoschedEnabled,
			Scheme:          sch,
			ReleaseInterval: sim.Duration(d.ReleaseMinutes) * sim.Minute,
			MaxHeldFraction: d.MaxHeldFraction,
			MaxYields:       d.MaxYields,
			YieldBoost:      d.YieldBoost,
		},
		Trace: tr,
	}, nil
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
