package config

import (
	"fmt"

	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// QueueSpec is the JSON form of one named submission queue, the way Cobalt
// partitioned Intrepid's workload (prod-devel, prod-short, prod-long…).
// Queues shape admission and priority only; node allocation stays global.
type QueueSpec struct {
	Name string `json:"name"`
	// MinNodes/MaxNodes bound admissible job sizes; 0 max = unbounded.
	MinNodes int `json:"min_nodes,omitempty"`
	MaxNodes int `json:"max_nodes,omitempty"`
	// MaxWallMins bounds admissible walltime requests; 0 = unbounded.
	MaxWallMins int64 `json:"max_walltime_minutes,omitempty"`
	// Priority scales the base policy's score of the queue's jobs (1.0 =
	// neutral, 2.0 = favored; 0 leaves the score unscaled).
	Priority float64 `json:"priority,omitempty"`
	// Default marks the queue that takes jobs matching nothing else.
	Default bool `json:"default,omitempty"`
}

// admits reports whether the queue accepts the job.
func (q QueueSpec) admits(j *job.Job) bool {
	return j.Nodes >= q.MinNodes &&
		(q.MaxNodes == 0 || j.Nodes <= q.MaxNodes) &&
		(q.MaxWallMins == 0 || j.Walltime <= sim.Duration(q.MaxWallMins)*sim.Minute)
}

// routeQueues checks a domain's queues, routes every trace job to the first
// (declaration-order) non-default queue that admits it, else to the default
// queue, and returns base with each job's score scaled by its queue's
// priority. A job no queue admits is an error.
func routeQueues(qs []QueueSpec, tr []*job.Job, base policy.Policy) (policy.Policy, error) {
	def := -1
	seen := make(map[string]bool, len(qs))
	for i, q := range qs {
		switch {
		case q.Name == "":
			return nil, fmt.Errorf("queue with empty name")
		case seen[q.Name]:
			return nil, fmt.Errorf("duplicate queue %q", q.Name)
		case q.MinNodes < 0 || (q.MaxNodes != 0 && q.MaxNodes < q.MinNodes):
			return nil, fmt.Errorf("queue %q: bad node bounds [%d, %d]", q.Name, q.MinNodes, q.MaxNodes)
		case q.MaxWallMins < 0:
			return nil, fmt.Errorf("queue %q: negative walltime bound", q.Name)
		case q.Priority < 0:
			return nil, fmt.Errorf("queue %q: negative priority", q.Name)
		case q.Default && def >= 0:
			return nil, fmt.Errorf("multiple default queues (%q and %q)", qs[def].Name, q.Name)
		}
		seen[q.Name] = true
		if q.Default {
			def = i
		}
	}
	prio := make(map[job.ID]float64, len(tr))
	for _, j := range tr {
		k := def
		for i, q := range qs {
			if i != def && q.admits(j) {
				k = i
				break
			}
		}
		if k < 0 || !qs[k].admits(j) {
			return nil, fmt.Errorf("no queue admits job %d (%d nodes, %d s walltime)", j.ID, j.Nodes, j.Walltime)
		}
		prio[j.ID] = qs[k].Priority
	}
	return &queuePolicy{base: base, prio: prio}, nil
}

// queuePolicy scales the base policy's score of each routed job by its
// queue's priority factor; unrouted jobs score unscaled.
type queuePolicy struct {
	base policy.Policy
	prio map[job.ID]float64
}

// Name implements policy.Policy.
func (p *queuePolicy) Name() string { return p.base.Name() + "+queues" }

// Score implements policy.Policy.
func (p *queuePolicy) Score(j *job.Job, now sim.Time) float64 {
	s := p.base.Score(j, now)
	if f := p.prio[j.ID]; f > 0 {
		s *= f
	}
	return s
}

// ObserveCompletion forwards usage accounting to the base policy when it
// tracks usage (fair-share under queues).
func (p *queuePolicy) ObserveCompletion(j *job.Job, now sim.Time) {
	if uo, ok := p.base.(policy.UsageObserver); ok {
		uo.ObserveCompletion(j, now)
	}
}
