package baseline

import (
	"fmt"

	"cosched/internal/backfill"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/sim"
)

// pairKey identifies a pair by its lexicographically first (domain, id).
type pairKey struct {
	domain string
	id     job.ID
}

// coReservation is one advance co-reservation run: a committed-capacity
// timeline per machine, and the first-arrived half of each pair waiting for
// its mate.
type coReservation struct {
	eng     *sim.Engine
	lines   map[string]*backfill.Timeline
	pending map[pairKey]*job.Job

	pairLatencies []float64
	stuck         int
}

// CoReserve simulates advance co-reservation over the domains to
// completion. Every job — paired or not — is planned at submission at the
// earliest start its walltime-sized window fits (conservative backfilling
// semantics), and an associated pair at the earliest *common* instant
// feasible on both machines; a job that ends early frees the rest of its
// window for later arrivals.
func CoReserve(domains []DomainConfig) (*Result, error) {
	byID, err := index(domains)
	if err != nil {
		return nil, err
	}
	s := &coReservation{
		eng:     sim.NewEngine(),
		lines:   make(map[string]*backfill.Timeline, len(domains)),
		pending: make(map[pairKey]*job.Job),
	}
	for _, dc := range domains {
		s.lines[dc.Name] = backfill.NewTimeline(dc.Nodes)
		for _, j := range dc.Trace {
			if _, err := s.eng.At(j.SubmitTime, sim.PrioritySubmit, func(now sim.Time) {
				s.submit(dc.Name, j, now)
			}); err != nil {
				return nil, err
			}
		}
	}
	s.eng.Run()
	// A pending half whose mate never arrived is stuck too.
	res := newResult(domains, byID, s.eng.Now(), s.stuck+len(s.pending))
	res.PairLatency = metrics.Summarize(s.pairLatencies)
	return res, nil
}

// submit plans a newly arrived job.
func (s *coReservation) submit(domain string, j *job.Job, now sim.Time) {
	if err := j.Advance(job.Queued); err != nil {
		panic(fmt.Sprintf("baseline: submit: %v", err))
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
func (s *coReservation) reserveSingle(domain string, j *job.Job, now sim.Time) {
	start := s.lines[domain].EarliestStart(now, j.Walltime, j.Nodes)
	if start == backfill.Infinity {
		s.stuck++
		return
	}
	s.scheduleRun(domain, j, start)
}

// reservePair finds the earliest common start feasible on both machines
// and commits both halves atomically.
func (s *coReservation) reservePair(domA string, ja *job.Job, domB string, jb *job.Job, now sim.Time) {
	la, lb := s.lines[domA], s.lines[domB]
	t := now
	for iter := 0; iter < 10000; iter++ {
		ta := la.EarliestStart(t, ja.Walltime, ja.Nodes)
		tb := lb.EarliestStart(t, jb.Walltime, jb.Nodes)
		if ta == backfill.Infinity || tb == backfill.Infinity {
			s.stuck += 2
			return
		}
		next := max(ta, tb)
		if la.Fits(next, ja.Walltime, ja.Nodes) && lb.Fits(next, jb.Walltime, jb.Nodes) {
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

// scheduleRun commits a job's walltime window from start and arms its start
// and completion events.
func (s *coReservation) scheduleRun(domain string, j *job.Job, start sim.Time) {
	line := s.lines[domain]
	line.Add(start, j.Walltime, j.Nodes)
	if _, err := s.eng.At(start, sim.PrioritySchedule, func(now sim.Time) {
		j.MarkReady(now)
		if err := j.Advance(job.Running); err != nil {
			panic(fmt.Sprintf("baseline: start: %v", err))
		}
		j.StartTime = now
	}); err != nil {
		panic(fmt.Sprintf("baseline: schedule start: %v", err))
	}
	if _, err := s.eng.At(start+j.Runtime, sim.PriorityEnd, func(now sim.Time) {
		if err := j.Advance(job.Completed); err != nil {
			panic(fmt.Sprintf("baseline: end: %v", err))
		}
		j.EndTime = now
		// Free the unused walltime tail for later arrivals.
		line.Add(now, j.Walltime-(now-j.StartTime), -j.Nodes)
		line.DropBefore(now)
	}); err != nil {
		panic(fmt.Sprintf("baseline: schedule end: %v", err))
	}
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
