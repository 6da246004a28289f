package baseline

import (
	"fmt"
	"sort"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// member is one machine-local half of a request.
type member struct {
	domain string
	j      *job.Job
}

// request is one unit of global scheduling: a single job or a
// heterogeneous pair spanning machines.
type request struct {
	members []member
	started bool
}

// submitTime returns the request's arrival at the portal: the LATEST
// member submission (the portal cannot act before it has the whole
// request).
func (r *request) submitTime() sim.Time {
	t := r.members[0].j.SubmitTime
	for _, m := range r.members[1:] {
		t = max(t, m.j.SubmitTime)
	}
	return t
}

// portal is one metascheduler run: both machines' pools behind one queue.
type portal struct {
	eng   *sim.Engine
	pools map[string]*cluster.Pool

	queue   []*request
	pending bool
	total   int
	done    int
}

// Metaschedule simulates a metascheduler owning every domain to
// completion: traces are merged, paired jobs fused into heterogeneous
// requests, and a request starts when every member fits its machine.
func Metaschedule(domains []DomainConfig) (*Result, error) {
	byID, err := index(domains)
	if err != nil {
		return nil, err
	}
	s := &portal{
		eng:   sim.NewEngine(),
		pools: make(map[string]*cluster.Pool, len(domains)),
	}
	for _, dc := range domains {
		s.pools[dc.Name] = cluster.New(dc.Name, dc.Nodes)
	}

	// Fuse pairs into requests (each job consumed once; groups follow
	// mate links transitively).
	assigned := make(map[*job.Job]bool)
	var requests []*request
	for _, dc := range domains {
		for _, j := range dc.Trace {
			if assigned[j] {
				continue
			}
			req := &request{}
			// Walk the mate closure breadth-first.
			frontier := []job.MateRef{{Domain: dc.Name, Job: j.ID}}
			seen := map[job.MateRef]bool{}
			for len(frontier) > 0 {
				ref := frontier[0]
				frontier = frontier[1:]
				if seen[ref] {
					continue
				}
				seen[ref] = true
				mj, ok := byID[ref.Domain][ref.Job]
				if !ok {
					continue // dangling mate: the portal schedules what it has
				}
				if assigned[mj] {
					continue
				}
				assigned[mj] = true
				req.members = append(req.members, member{domain: ref.Domain, j: mj})
				frontier = append(frontier, mj.Mates...)
			}
			if len(req.members) > 0 {
				requests = append(requests, req)
			}
		}
	}

	// Arrival events: the request enters the global queue when its last
	// member is submitted.
	for _, req := range requests {
		s.total += len(req.members)
		at := req.submitTime()
		for _, m := range req.members {
			m.j.SubmitTime = at // the portal is the submission point
		}
		if _, err := s.eng.At(at, sim.PrioritySubmit, func(now sim.Time) {
			for _, m := range req.members {
				if err := m.j.Advance(job.Queued); err != nil {
					panic(fmt.Sprintf("baseline: queue: %v", err))
				}
			}
			s.queue = append(s.queue, req)
			s.requestIteration()
		}); err != nil {
			return nil, err
		}
	}
	s.eng.Run()
	return newResult(domains, byID, s.eng.Now(), s.total-s.done), nil
}

func (s *portal) requestIteration() {
	if s.pending {
		return
	}
	s.pending = true
	s.eng.After(0, sim.PrioritySchedule, func(now sim.Time) {
		s.pending = false
		s.iterate(now)
	})
}

// score is the portal's queue order: its requests' highest WFP score over
// their members.
func score(r *request, now sim.Time) float64 {
	var wfp policy.WFP
	best := wfp.Score(r.members[0].j, now)
	for _, m := range r.members[1:] {
		if v := wfp.Score(m.j, now); v > best {
			best = v
		}
	}
	return best
}

// iterate runs one global scheduling pass: requests in priority order,
// greedy multi-resource backfill (a request starts whenever every member
// fits its machine right now — the portal sees all machines, so no
// cross-domain protocol and no reservations are needed).
func (s *portal) iterate(now sim.Time) {
	ordered := append([]*request(nil), s.queue...)
	sort.SliceStable(ordered, func(a, b int) bool {
		sa, sb := score(ordered[a], now), score(ordered[b], now)
		//simlint:allow R5 sort comparator must be exact and total; an epsilon tie would break strict weak ordering
		if sa != sb {
			return sa > sb
		}
		return ordered[a].submitTime() < ordered[b].submitTime()
	})
	for _, req := range ordered {
		if req.started {
			continue
		}
		fits := true
		for _, m := range req.members {
			if !s.pools[m.domain].CanAllocate(m.j.Nodes) {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		s.start(req, now)
	}
}

// start atomically allocates every member and schedules completions.
func (s *portal) start(req *request, now sim.Time) {
	req.started = true
	for _, m := range req.members {
		alloc, err := s.pools[m.domain].Allocate(now, m.j.Nodes, cluster.AllocRun)
		if err != nil {
			panic(fmt.Sprintf("baseline: allocate after CanAllocate: %v", err))
		}
		m.j.MarkReady(now)
		if err := m.j.Advance(job.Running); err != nil {
			panic(fmt.Sprintf("baseline: start: %v", err))
		}
		m.j.StartTime = now
		mj, dom, id := m.j, m.domain, alloc.ID
		s.eng.After(mj.Runtime, sim.PriorityEnd, func(end sim.Time) {
			if err := s.pools[dom].Release(end, id); err != nil {
				panic(fmt.Sprintf("baseline: release: %v", err))
			}
			if err := mj.Advance(job.Completed); err != nil {
				panic(fmt.Sprintf("baseline: complete: %v", err))
			}
			mj.EndTime = end
			s.done++
			s.requestIteration()
		})
	}
	// Remove from the queue.
	for i, q := range s.queue {
		if q == req {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
}
