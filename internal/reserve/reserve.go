// Package reserve implements the advance co-reservation baseline the paper
// compares coscheduling against (§III: HARC, GARA, GUR). Every job —
// paired or not — is planned onto a node-availability timeline at
// submission: the scheduler finds the earliest feasible start for its
// walltime-sized window and commits a reservation (conservative
// backfilling semantics). An associated pair is committed at the earliest
// *common* instant feasible on both machines.
//
// The paper's argument, which internal/experiments quantifies, is that
// reservations fragment the machines: walltime-sized windows pin capacity
// that actual runtimes don't use, so regular jobs wait longer than under
// coscheduling even though pairs start promptly.
package reserve

import (
	"fmt"

	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/profile"
	"cosched/internal/sim"
)

// DomainConfig describes one machine in the co-reservation system.
type DomainConfig struct {
	Name  string
	Nodes int
	Trace []*job.Job
}

// Options configures a co-reservation simulation.
type Options struct {
	Domains []DomainConfig
}

// Result summarizes a run.
type Result struct {
	Reports  map[string]metrics.DomainReport
	Makespan sim.Time
	// PairLatency summarizes, in minutes, the gap between a pair's later
	// submission and its reserved common start.
	PairLatency metrics.Summary
	// StuckJobs counts jobs that never received a feasible reservation
	// (should be zero unless a job exceeds its machine).
	StuckJobs int
	// CoStartViolations counts pairs whose halves started at different
	// instants (must be zero: reservations are made atomically).
	CoStartViolations int
}

// pairKey identifies a pair by its lexicographically first (domain, id).
type pairKey struct {
	domain string
	id     job.ID
}

// Sim is a configured co-reservation simulation.
type Sim struct {
	eng      *sim.Engine
	names    []string
	lines    map[string]*profile.Timeline
	traces   map[string][]*job.Job
	byID     map[string]map[job.ID]*job.Job
	commitOf map[*job.Job]int64

	// pending holds the first-arrived half of each pair until its mate
	// arrives.
	pending map[pairKey]*job.Job

	pairLatencies []float64
	stuck         int
}

// New builds the simulation and schedules all submissions.
func New(opt Options) (*Sim, error) {
	if len(opt.Domains) == 0 {
		return nil, fmt.Errorf("reserve: need at least one domain")
	}
	s := &Sim{
		eng:      sim.NewEngine(),
		lines:    make(map[string]*profile.Timeline),
		traces:   make(map[string][]*job.Job),
		byID:     make(map[string]map[job.ID]*job.Job),
		commitOf: make(map[*job.Job]int64),
		pending:  make(map[pairKey]*job.Job),
	}
	for _, dc := range opt.Domains {
		if dc.Name == "" {
			return nil, fmt.Errorf("reserve: domain with empty name")
		}
		if _, dup := s.lines[dc.Name]; dup {
			return nil, fmt.Errorf("reserve: duplicate domain %q", dc.Name)
		}
		s.names = append(s.names, dc.Name)
		s.lines[dc.Name] = profile.New(dc.Nodes)
		s.traces[dc.Name] = dc.Trace
		ids := make(map[job.ID]*job.Job, len(dc.Trace))
		for _, j := range dc.Trace {
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("reserve: domain %q: %w", dc.Name, err)
			}
			if j.Nodes > dc.Nodes {
				return nil, fmt.Errorf("reserve: domain %q: job %d needs %d of %d nodes",
					dc.Name, j.ID, j.Nodes, dc.Nodes)
			}
			if _, dup := ids[j.ID]; dup {
				return nil, fmt.Errorf("reserve: domain %q: duplicate job %d", dc.Name, j.ID)
			}
			ids[j.ID] = j
		}
		s.byID[dc.Name] = ids
	}
	for _, name := range s.names {
		for _, j := range s.traces[name] {
			name, j := name, j
			if _, err := s.eng.At(j.SubmitTime, sim.PrioritySubmit, func(now sim.Time) {
				s.submit(name, j, now)
			}); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// submit plans a newly arrived job.
func (s *Sim) submit(domain string, j *job.Job, now sim.Time) {
	if err := j.Advance(job.Queued); err != nil {
		panic(fmt.Sprintf("reserve: submit: %v", err))
	}
	if !j.Paired() {
		s.reserveSingle(domain, j, now)
		return
	}
	// Pair handling (2-way; the baseline comparator mirrors the paper's
	// co-reservation systems, which coordinate two machines).
	mate := j.Mates[0]
	key := canonicalKey(domain, j.ID, mate.Domain, mate.Job)
	if first, ok := s.pending[key]; ok {
		delete(s.pending, key)
		firstDomain := mate.Domain // the earlier half lives on the mate's domain
		s.reservePair(firstDomain, first, domain, j, now)
		return
	}
	s.pending[key] = j
}

// reserveSingle commits an unpaired job at its earliest feasible start.
func (s *Sim) reserveSingle(domain string, j *job.Job, now sim.Time) {
	line := s.lines[domain]
	start := line.EarliestStart(now, j.Walltime, j.Nodes)
	if start == profile.Infinity {
		s.stuck++
		return
	}
	id, err := line.Commit(start, j.Walltime, j.Nodes)
	if err != nil {
		panic(fmt.Sprintf("reserve: single commit: %v", err))
	}
	s.commitOf[j] = id
	s.scheduleRun(domain, j, start)
}

// reservePair finds the earliest common start feasible on both machines
// and commits both halves atomically.
func (s *Sim) reservePair(domA string, ja *job.Job, domB string, jb *job.Job, now sim.Time) {
	la, lb := s.lines[domA], s.lines[domB]
	t := now
	for iter := 0; iter < 10000; iter++ {
		ta := la.EarliestStart(t, ja.Walltime, ja.Nodes)
		tb := lb.EarliestStart(t, jb.Walltime, jb.Nodes)
		if ta == profile.Infinity || tb == profile.Infinity {
			s.stuck += 2
			return
		}
		next := ta
		if tb > next {
			next = tb
		}
		if la.CanCommit(next, ja.Walltime, ja.Nodes) && lb.CanCommit(next, jb.Walltime, jb.Nodes) {
			ida, err := la.Commit(next, ja.Walltime, ja.Nodes)
			if err != nil {
				panic(fmt.Sprintf("reserve: pair commit A: %v", err))
			}
			idb, err := lb.Commit(next, jb.Walltime, jb.Nodes)
			if err != nil {
				panic(fmt.Sprintf("reserve: pair commit B: %v", err))
			}
			s.commitOf[ja], s.commitOf[jb] = ida, idb
			s.scheduleRun(domA, ja, next)
			s.scheduleRun(domB, jb, next)
			s.pairLatencies = append(s.pairLatencies, float64(next-now)/60)
			return
		}
		if next == t {
			// Both said t is the earliest yet one cannot commit: step past
			// the blocking boundary by retrying strictly later.
			next++
		}
		t = next
	}
	s.stuck += 2
}

// scheduleRun arms the start and completion events for a committed job.
func (s *Sim) scheduleRun(domain string, j *job.Job, start sim.Time) {
	if _, err := s.eng.At(start, sim.PrioritySchedule, func(now sim.Time) {
		j.MarkReady(now)
		if err := j.Advance(job.Running); err != nil {
			panic(fmt.Sprintf("reserve: start: %v", err))
		}
		j.StartTime = now
	}); err != nil {
		panic(fmt.Sprintf("reserve: schedule start: %v", err))
	}
	end := start + j.Runtime
	if _, err := s.eng.At(end, sim.PriorityEnd, func(now sim.Time) {
		if err := j.Advance(job.Completed); err != nil {
			panic(fmt.Sprintf("reserve: end: %v", err))
		}
		j.EndTime = now
		// Free the unused walltime tail for later arrivals.
		line := s.lines[domain]
		if id, ok := s.commitOf[j]; ok {
			if err := line.TruncateAt(id, now); err != nil {
				panic(fmt.Sprintf("reserve: truncate: %v", err))
			}
		}
		line.GC(now)
	}); err != nil {
		panic(fmt.Sprintf("reserve: schedule end: %v", err))
	}
}

// Run executes to completion and collects results.
func (s *Sim) Run() *Result {
	s.eng.Run()
	res := &Result{
		Reports:     make(map[string]metrics.DomainReport),
		Makespan:    s.eng.Now(),
		PairLatency: metrics.Summarize(s.pairLatencies),
		StuckJobs:   s.stuck + len(s.pending), // a pending half whose mate never arrived
	}
	for _, name := range s.names {
		res.Reports[name] = metrics.Collect(name, s.traces[name], s.lines[name].Total(), res.Makespan)
	}
	// Verify the co-start invariant.
	for _, name := range s.names {
		for _, j := range s.traces[name] {
			if !j.Paired() || j.State != job.Completed {
				continue
			}
			for _, m := range j.Mates {
				if name > m.Domain {
					continue
				}
				mate, ok := s.byID[m.Domain][m.Job]
				if ok && mate.State == job.Completed && mate.StartTime != j.StartTime {
					res.CoStartViolations++
				}
			}
		}
	}
	return res
}

// canonicalKey orders the pair's two (domain, id) halves deterministically.
func canonicalKey(domA string, idA job.ID, domB string, idB job.ID) pairKey {
	ka := pairKey{domA, idA}
	kb := pairKey{domB, idB}
	if less(ka, kb) {
		return ka
	}
	return kb
}

func less(a, b pairKey) bool {
	if a.domain != b.domain {
		return a.domain < b.domain
	}
	return a.id < b.id
}
