// Package baseline implements the two coordination mechanisms the paper's
// §III sets coscheduling against, each as one simulation over the same
// machines and traces:
//
//   - CoReserve is advance co-reservation (HARC, GARA, GUR): every job is
//     planned onto a committed-capacity timeline at submission, and a pair
//     is committed at the earliest instant feasible on both machines.
//   - Metaschedule is a metascheduler (GridWay, LoadLeveler, Moab) owning
//     both machines behind one submission portal, where a pair is one
//     heterogeneous request allocated atomically.
//
// Both co-start every pair by construction. What internal/experiments
// quantifies is the price: reservations fragment the machines with
// walltime-sized windows that actual runtimes don't use, and the portal
// needs every site to give up its scheduling autonomy.
package baseline

import (
	"fmt"

	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/sim"
)

// DomainConfig describes one machine and the trace submitted to it.
type DomainConfig struct {
	Name  string
	Nodes int
	Trace []*job.Job
}

// Result summarizes a run.
type Result struct {
	Reports map[string]metrics.DomainReport
	// PairLatency summarizes, in minutes, the gap between a pair's later
	// submission and its reserved common start (co-reservation only).
	PairLatency metrics.Summary
	// StuckJobs counts jobs that never started.
	StuckJobs int
	// CoStartViolations counts pairs whose halves started at different
	// instants (must be zero: both mechanisms start pairs atomically).
	CoStartViolations int
}

// index validates the domains — named, distinct, non-empty machines whose
// jobs are valid, fit their machine and have distinct IDs — and returns
// every job by domain and ID.
func index(domains []DomainConfig) (map[string]map[job.ID]*job.Job, error) {
	if len(domains) == 0 {
		return nil, fmt.Errorf("baseline: need at least one domain")
	}
	byID := make(map[string]map[job.ID]*job.Job, len(domains))
	for _, dc := range domains {
		if dc.Name == "" {
			return nil, fmt.Errorf("baseline: domain with empty name")
		}
		if _, dup := byID[dc.Name]; dup {
			return nil, fmt.Errorf("baseline: duplicate domain %q", dc.Name)
		}
		if dc.Nodes <= 0 {
			return nil, fmt.Errorf("baseline: domain %q: %d nodes", dc.Name, dc.Nodes)
		}
		ids := make(map[job.ID]*job.Job, len(dc.Trace))
		for _, j := range dc.Trace {
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("baseline: domain %q: %w", dc.Name, err)
			}
			if j.Nodes > dc.Nodes {
				return nil, fmt.Errorf("baseline: domain %q: job %d needs %d of %d nodes",
					dc.Name, j.ID, j.Nodes, dc.Nodes)
			}
			if _, dup := ids[j.ID]; dup {
				return nil, fmt.Errorf("baseline: domain %q: duplicate job %d", dc.Name, j.ID)
			}
			ids[j.ID] = j
		}
		byID[dc.Name] = ids
	}
	return byID, nil
}

// newResult collects the per-domain reports of a finished run and checks
// that every completed pair started at one instant.
func newResult(domains []DomainConfig, byID map[string]map[job.ID]*job.Job, makespan sim.Time, stuck int) *Result {
	res := &Result{
		Reports:   make(map[string]metrics.DomainReport, len(domains)),
		StuckJobs: stuck,
	}
	for _, dc := range domains {
		res.Reports[dc.Name] = metrics.Collect(dc.Name, dc.Trace, dc.Nodes, makespan)
		for _, j := range dc.Trace {
			if !j.Paired() || j.State != job.Completed {
				continue
			}
			for _, m := range j.Mates {
				if dc.Name > m.Domain {
					continue // counted from the mate's side
				}
				mate, ok := byID[m.Domain][m.Job]
				if ok && mate.State == job.Completed && mate.StartTime != j.StartTime {
					res.CoStartViolations++
				}
			}
		}
	}
	return res
}
