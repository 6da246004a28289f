// Package coupled simulates a coupled HEC installation: two (or more)
// scheduling domains, each with its own resource manager, node pool,
// policy, and coscheduling configuration, driven by one shared virtual
// clock — the multi-domain extension of Qsim the paper built for its
// evaluation (§V-A).
//
// Domains coordinate only through the cosched.Peer interface. By default
// managers are wired to each other directly (in-process); with
// UseWireProtocol every call is a length-prefixed JSON frame built by a
// proto.Client and parsed, dispatched and answered by a proto.Server — the
// code the live daemons run — on the calling goroutine, so a wire-mode
// simulation is as single-threaded and deterministic as a direct one.
package coupled

import (
	"fmt"
	"sort"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/policy"
	"cosched/internal/predict"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// DomainConfig describes one scheduling domain.
type DomainConfig struct {
	Name string
	// Nodes is the pool size (e.g. 40960 for Intrepid, 100 for Eureka).
	Nodes int
	// MinPartition, when positive, enables BG/P-style power-of-two
	// partition allocation with this minimum size.
	MinPartition int
	// Policy names the queue policy ("wfp", "fcfs", "sjf", "largest",
	// "fairshare"); empty selects WFP.
	Policy string
	// PolicyImpl, when non-nil, overrides Policy with a concrete
	// implementation (e.g. a queue-routing wrapper from internal/queues).
	PolicyImpl policy.Policy
	// Backfilling enables backfill (the paper's setting: WFP plus EASY).
	Backfilling bool
	// BackfillMode optionally selects the planner when Backfilling is on:
	// "easy" (default) or "conservative".
	BackfillMode string
	// Estimator names the backfill planning-runtime source: "walltime"
	// (default) or "user-average" (Tsafrir-style prediction).
	Estimator string
	// SchedCore names the resource manager's scheduling core:
	// "incremental" (default) or "reference" (the original
	// allocate-and-sort path, kept for differential testing). Both must
	// produce byte-identical results.
	SchedCore string
	// Cosched is the domain's coscheduling configuration.
	Cosched cosched.Config
	// Trace is the domain's workload, sorted by submit time. Jobs are
	// mutated during the run; pass workload.Clone copies to reuse traces.
	Trace []*job.Job
	// Observer, when non-nil, receives lifecycle callbacks.
	Observer resmgr.Observer
}

// Options configures a coupled simulation.
type Options struct {
	Domains []DomainConfig
	// UseWireProtocol routes every peer call through proto frames
	// (proto.Client → proto.Server.InProcessConn) instead of direct method
	// calls. The schedule is byte-identical either way.
	UseWireProtocol bool
	// Horizon bounds virtual time; 0 derives a generous bound from the
	// traces. Hitting the horizon marks remaining jobs stuck.
	Horizon sim.Time
	// FaultRate, when positive, wraps every peer in a deterministic fault
	// injector failing that fraction of coordination calls (seeded by
	// FaultSeed) — chaos testing for the §IV-C fault-tolerance path. Jobs
	// whose coordination fails start uncoordinated, so co-start
	// violations become expected.
	FaultRate float64
	FaultSeed uint64
}

// Result summarizes a completed simulation.
type Result struct {
	// Reports holds one metrics report per domain, keyed by name.
	Reports map[string]metrics.DomainReport
	// Makespan is the virtual time when the simulation stopped.
	Makespan sim.Time
	// TotalJobs and CompletedJobs aggregate across domains.
	TotalJobs, CompletedJobs int
	// StuckJobs counts jobs that never completed — the observable
	// signature of the hold-hold deadlock when the release enhancement is
	// off (§V-B).
	StuckJobs int
	// Deadlocked is true when the run ended with stuck jobs.
	Deadlocked bool
	// HitHorizon is true when the run was cut off at the horizon rather
	// than draining naturally.
	HitHorizon bool
	// CoStartViolations counts paired jobs that started at a different
	// instant than a started mate — must be 0 unless faults were
	// injected.
	CoStartViolations int
	// Iterations sums scheduling iterations across domains.
	Iterations uint64
}

// Sim is a configured coupled simulation. Create with New, inspect or
// adjust, then Run.
type Sim struct {
	eng      *sim.Engine
	managers map[string]*resmgr.Manager
	order    []string
	traces   map[string][]*job.Job
	horizon  sim.Time
}

// New builds the engine, domains, and peer wiring, and schedules every
// trace job's submission.
func New(opt Options) (*Sim, error) {
	if len(opt.Domains) < 1 {
		return nil, fmt.Errorf("coupled: need at least one domain")
	}
	eng := sim.NewEngine()
	s := &Sim{
		eng:      eng,
		managers: make(map[string]*resmgr.Manager),
		traces:   make(map[string][]*job.Job),
	}
	for _, dc := range opt.Domains {
		if dc.Name == "" {
			return nil, fmt.Errorf("coupled: domain with empty name")
		}
		if _, dup := s.managers[dc.Name]; dup {
			return nil, fmt.Errorf("coupled: duplicate domain %q", dc.Name)
		}
		pol, ok := policy.ByName(dc.Policy)
		if !ok {
			return nil, fmt.Errorf("coupled: domain %q: unknown policy %q", dc.Name, dc.Policy)
		}
		if dc.PolicyImpl != nil {
			pol = dc.PolicyImpl
		}
		est, ok := predict.ByName(dc.Estimator)
		if !ok {
			return nil, fmt.Errorf("coupled: domain %q: unknown estimator %q", dc.Name, dc.Estimator)
		}
		mode, ok := resmgr.ParseBackfillMode(dc.BackfillMode)
		if !ok {
			return nil, fmt.Errorf("coupled: domain %q: unknown backfill mode %q", dc.Name, dc.BackfillMode)
		}
		core, ok := resmgr.ParseCore(dc.SchedCore)
		if !ok {
			return nil, fmt.Errorf("coupled: domain %q: unknown sched core %q", dc.Name, dc.SchedCore)
		}
		var pool *cluster.Pool
		if dc.MinPartition > 0 {
			pool = cluster.NewPartitioned(dc.Name, dc.Nodes, dc.MinPartition)
		} else {
			pool = cluster.New(dc.Name, dc.Nodes)
		}
		obs := dc.Observer
		if obs == nil {
			obs = resmgr.NullObserver{}
		}
		m := resmgr.New(eng, resmgr.Options{
			Name:        dc.Name,
			Pool:        pool,
			Policy:      pol,
			Backfilling: dc.Backfilling,
			Mode:        mode,
			Estimator:   est,
			Cosched:     dc.Cosched,
			Observer:    obs,
			Core:        core,
		})
		s.managers[dc.Name] = m
		s.order = append(s.order, dc.Name)
		s.traces[dc.Name] = dc.Trace
	}

	// Wire every domain to every other; the n-th directed link's fault
	// injector (if any) is seeded FaultSeed+n.
	seed := opt.FaultSeed
	for _, a := range s.order {
		for _, b := range s.order {
			if a == b {
				continue
			}
			seed++
			peer, err := makePeer(s.managers[b], opt, seed)
			if err != nil {
				return nil, err
			}
			s.managers[a].AddPeer(b, peer)
		}
	}

	// Schedule submissions and derive the default horizon. Domains are
	// walked in declaration order, not map order: scheduling assigns the
	// engine sequence numbers that break ties between same-instant events
	// across domains, so a random walk here would make whole simulations
	// differ from run to run.
	var lastSubmit sim.Time
	var maxRuntime sim.Duration
	for _, name := range s.order {
		tr := s.traces[name]
		m := s.managers[name]
		for _, j := range tr {
			if j.Nodes > m.Pool().Total() {
				return nil, fmt.Errorf("coupled: domain %q: job %d requests %d nodes but the pool has %d — it could never start",
					name, j.ID, j.Nodes, m.Pool().Total())
			}
			if j.SubmitTime > lastSubmit {
				lastSubmit = j.SubmitTime
			}
			if j.Runtime > maxRuntime {
				maxRuntime = j.Runtime
			}
		}
		// SubmitTrace replays the whole trace through one chained event,
		// keeping the event heap sized by concurrent work rather than by
		// total trace length. It requires submit-time order; generated
		// traces already have it, and a hand-built unsorted trace (e.g. the
		// quickstart example) is stably sorted into a copy — same-instant
		// jobs keep their trace order, which is exactly the order the old
		// per-job submission events fired in (engine sequence ties).
		if !sortedBySubmit(tr) {
			tr = append([]*job.Job(nil), tr...)
			sort.SliceStable(tr, func(a, b int) bool { return tr[a].SubmitTime < tr[b].SubmitTime })
		}
		if err := m.SubmitTrace(tr); err != nil {
			return nil, fmt.Errorf("coupled: domain %q: %w", name, err)
		}
	}
	s.horizon = opt.Horizon
	if s.horizon == 0 {
		// Generous: all submitted work could drain serially many times
		// over before this bound matters in a non-pathological run.
		s.horizon = lastSubmit + 100*maxRuntime + 365*sim.Day
	}
	return s, nil
}

// sortedBySubmit reports whether tr is in non-decreasing submit-time
// order, the precondition of resmgr.SubmitTrace.
func sortedBySubmit(tr []*job.Job) bool {
	for i := 1; i < len(tr); i++ {
		if tr[i].SubmitTime < tr[i-1].SubmitTime {
			return false
		}
	}
	return true
}

// makePeer wires the peer through which a domain calls manager m: m itself
// when the wiring is direct and fault-free, otherwise one proto.Exchanger
// chain — m → proto.Server → [proto.Client on the server's in-process conn,
// with UseWireProtocol] → [proto.FaultInjector, with FaultRate] — spoken
// through a proto.Caller. No goroutine, no lock (every call runs on the
// engine's goroutine) and nothing to close when the simulation is dropped.
func makePeer(m *resmgr.Manager, opt Options, seed uint64) (cosched.Peer, error) {
	if !opt.UseWireProtocol && opt.FaultRate <= 0 {
		return m, nil
	}
	srv := proto.NewServer(m, nil, nil)
	var ex proto.Exchanger = srv
	if opt.UseWireProtocol {
		client := proto.NewClient(srv.InProcessConn(), 0)
		if _, err := client.Ping(); err != nil {
			return nil, fmt.Errorf("coupled: wire peer ping: %w", err)
		}
		ex = client
	}
	if opt.FaultRate > 0 {
		ex = proto.NewFaultInjector(ex, proto.NewRateScript(seed, proto.Rates{Fail: opt.FaultRate}), nil)
	}
	return proto.Caller{Exchanger: ex}, nil
}

// Engine exposes the shared engine (for tests that co-schedule extra
// events, e.g. fault injection).
func (s *Sim) Engine() *sim.Engine { return s.eng }

// Manager returns the named domain's resource manager.
func (s *Sim) Manager(name string) *resmgr.Manager { return s.managers[name] }

// Run executes the simulation to completion (all jobs done, events
// drained, or horizon reached) and collects the result.
func (s *Sim) Run() *Result {
	total := 0
	for _, tr := range s.traces {
		total += len(tr)
	}
	res := &Result{Reports: make(map[string]metrics.DomainReport), TotalJobs: total}

	// The done check runs after every engine step, so it walks a flat
	// manager slice: ranging the map here made the per-event loop spend
	// more time in map iteration than in some handlers.
	ms := make([]*resmgr.Manager, 0, len(s.order))
	for _, name := range s.order {
		ms = append(ms, s.managers[name])
	}
	done := func() int {
		n := 0
		for _, m := range ms {
			n += m.CompletedCount() + m.CancelledCount()
		}
		return n
	}
	for done() < total {
		if !s.eng.Step() {
			break // drained with incomplete jobs: deadlock/starvation
		}
		if s.eng.Now() > s.horizon {
			res.HitHorizon = true
			break
		}
	}
	res.Makespan = s.eng.Now()
	res.CompletedJobs = done()
	res.StuckJobs = total - res.CompletedJobs
	res.Deadlocked = res.StuckJobs > 0

	for name, m := range s.managers {
		m.Pool().Sync(res.Makespan)
		res.Iterations += m.Iterations()
		res.Reports[name] = m.CollectReport(m.Pool().Total(), res.Makespan)
	}
	res.CoStartViolations = s.verifyCoStarts()
	return res
}

// verifyCoStarts checks the paper's core guarantee: every pair (or N-way
// group) of jobs that both started did so at the same virtual instant.
func (s *Sim) verifyCoStarts() int {
	violations := 0
	for name, m := range s.managers {
		for _, j := range m.Jobs() {
			if !j.Paired() || !started(j) {
				continue
			}
			for _, ref := range j.Mates {
				rm, ok := s.managers[ref.Domain]
				if !ok {
					continue
				}
				mate, ok := rm.Job(ref.Job)
				if !ok || !started(mate) {
					continue
				}
				// Count each violating pair once (from the lexically
				// smaller domain, or smaller ID within a domain).
				if name > ref.Domain {
					continue
				}
				if j.StartTime != mate.StartTime {
					violations++
				}
			}
		}
	}
	return violations
}

func started(j *job.Job) bool {
	return j.State == job.Running || j.State == job.Completed
}
