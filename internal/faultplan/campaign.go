package faultplan

import (
	"fmt"
	"os"
	"path/filepath"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/invariant"
	"cosched/internal/journal"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// The two campaign domains: a holds, b yields — the paper's
// Intrepid/Eureka asymmetry at toy scale.
const (
	campDomA     = "a"
	campDomB     = "b"
	campJobs     = 60
	campPairProp = 0.5
	campHoldCap  = 2 // degraded-mode hold budget, mirroring -degraded-max-holds
)

// campDomains describes the two domains. The run adds each one's trace and
// journal recorder; the recovery gate rebuilds each from its own.
var campDomains = [2]coupled.DomainConfig{
	{Name: campDomA, Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold)},
	{Name: campDomB, Nodes: 16, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield)},
}

// RunCampaign executes one campaign: a two-domain coupled simulation with
// the plan's journal faults wired under domain a's write-ahead journal and
// the peerlink faults scripted onto both coordination directions, plus
// reconcile-and-compact drills at every scheduled restart instant. It
// returns the faults that fired — journal faults in firing order, then
// each direction's peer faults in call order, then the restart drills that
// ran — and one line per gate the run failed (none for a clean campaign).
//
// Gates: the workload always drains (graceful degradation means storage
// and peer faults never wedge the scheduler); co-start violations are
// explained by failed coordination calls; the clean-filesystem journal
// neither poisons nor tears; both journals replay into a consistent
// recovered state even when the faulted store poisoned mid-run.
//
// corrupt flips one byte of domain b's journal — the one on the clean
// filesystem — before the recovery gates read it: the deterministic proof
// that a campaign can fail.
func RunCampaign(plan *Plan, corrupt bool) (fired []Fault, failures []string) {
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	spec := workload.Spec{
		Name: campDomA, Jobs: campJobs, Span: 6 * sim.Hour,
		Sizes:     []workload.SizeClass{{Nodes: 8, Weight: 0.5}, {Nodes: 16, Weight: 0.3}, {Nodes: 32, Weight: 0.2}},
		RuntimeMu: 6.0, RuntimeSigma: 0.8,
		MinRuntime: 2 * sim.Minute, MaxRuntime: 2 * sim.Hour,
		WallFactorMin: 1.2, WallFactorMax: 3.0,
		Seed: plan.Seed,
	}
	a, err := workload.Generate(spec)
	if err != nil {
		fail("workload a: %v", err)
		return fired, failures
	}
	spec.Name, spec.Seed = campDomB, plan.Seed+1
	spec.Sizes = []workload.SizeClass{{Nodes: 1, Weight: 0.4}, {Nodes: 2, Weight: 0.3}, {Nodes: 4, Weight: 0.3}}
	b, err := workload.Generate(spec)
	if err != nil {
		fail("workload b: %v", err)
		return fired, failures
	}
	rng := workload.NewRNG(plan.Seed + 2)
	if _, err := workload.PairByProportion(rng, a, b, campDomA, campDomB, campPairProp); err != nil {
		fail("pairing: %v", err)
		return fired, failures
	}

	// Journals: domain a writes through the plan's fault-injecting VFS,
	// domain b through the untouched OS filesystem. Each domain mirrors the
	// daemon's degradation controller — on poisoning, detach the recorder
	// and clamp the hold budget instead of failing the run.
	tmp, err := os.MkdirTemp("", "chaosjournal")
	if err != nil {
		fail("tempdir: %v", err)
		return fired, failures
	}
	defer os.RemoveAll(tmp)
	dirA, dirB := filepath.Join(tmp, campDomA), filepath.Join(tmp, campDomB)
	ffs := NewFaultFS(plan, nil)
	storeA, err := journal.Open(dirA, journal.Options{FS: ffs})
	if err != nil {
		fail("journal a open: %v", err)
		return fired, failures
	}
	//simlint:allow R7 fault-injected store: Close after a poisoning fault returns the injected error by design, and the recovery gate reopens the journal to validate the surviving prefix
	defer storeA.Close()
	storeB, err := journal.Open(dirB, journal.Options{})
	if err != nil {
		fail("journal b open: %v", err)
		return fired, failures
	}
	//simlint:allow R7 clean-FS store, closed after the run; the clean-store gate already failed the campaign if it poisoned
	defer storeB.Close()

	var mgrA, mgrB *resmgr.Manager
	recA, degA := newCampaignRecorder(storeA, &mgrA)
	recB, degB := newCampaignRecorder(storeB, &mgrB)

	da, db := campDomains[0], campDomains[1]
	da.Trace, da.Observer = a, recA
	db.Trace, db.Observer = b, recB
	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{da, db}})
	if err != nil {
		fail("coupled.New: %v", err)
		return fired, failures
	}
	mgrA, mgrB = s.Manager(campDomA), s.Manager(campDomB)
	// The store can poison during trace submission, before the managers
	// exist; apply the deferred hold-budget clamp now.
	if *degA {
		mgrA.SetHoldBudget(campHoldCap)
	}
	if *degB {
		mgrB.SetHoldBudget(campHoldCap)
	}

	// Replace the direct peer wiring with script-driven injectors over each
	// manager's proto.Server (the dispatch a wire peer's server runs): dir 0
	// is a→b, dir 1 is b→a. There is no connection under a Server, so no
	// dropper.
	scriptAB := NewPeerScript(plan, 0)
	scriptBA := NewPeerScript(plan, 1)
	ia := proto.NewFaultInjector(proto.NewServer(mgrB, nil, nil), scriptAB, nil)
	ib := proto.NewFaultInjector(proto.NewServer(mgrA, nil, nil), scriptBA, nil)
	mgrA.AddPeer(campDomB, ia)
	mgrB.AddPeer(campDomA, ib)

	// Restart drills: at each scheduled instant, run the post-restart
	// reconciliation handshake (through the faulted path — errors are what
	// a real restart would retry) and force a compaction so Compact's
	// rename/dir-fsync ordering sits inside the fault schedule too.
	var drills []Fault
	for i, at := range plan.Restarts() {
		caller, callee, link := mgrA, campDomB, cosched.Peer(ia)
		if i%2 == 1 {
			caller, callee, link = mgrB, campDomA, ib
		}
		s.Engine().After(sim.Duration(at), sim.PriorityDefault, func(now sim.Time) {
			drills = append(drills, Fault{Seam: SeamPeerlink, Kind: KindRestart, At: at})
			_, _ = caller.ReconcileWith(callee, link) //nolint — a real daemon retries; the drill tolerates faulted exchanges
			//simlint:allow R7 the drill injects compaction faults on purpose; the post-run recovery gate validates whatever ordering survived on disk
			_ = storeA.Compact(journal.ManagerSnapshot(mgrA))
		})
	}

	res := s.Run()
	fired = append(append(append(ffs.Fired(), scriptAB.Fired()...), scriptBA.Fired()...), drills...)

	// Gate: chaos may delay or un-coordinate work, never wedge it.
	if res.StuckJobs > 0 || res.Deadlocked {
		fail("coupled run stuck: %d/%d jobs never finished (horizon hit: %v)",
			res.StuckJobs, res.TotalJobs, res.HitHorizon)
	}
	// Gate: every co-start violation must be explained by a coordination
	// call the injectors failed; a fault-free wire means zero violations.
	badCalls := ia.Failed() + ib.Failed()
	if badCalls == 0 && res.CoStartViolations != 0 {
		fail("%d co-start violation(s) with zero injected coordination failures", res.CoStartViolations)
	}
	if res.CoStartViolations > badCalls {
		fail("%d co-start violation(s) exceed the %d failed coordination call(s) that could explain them",
			res.CoStartViolations, badCalls)
	}
	// Gate: a clean filesystem must never poison the store.
	if err := storeB.Poisoned(); err != nil {
		fail("journal b poisoned without injected faults: %v", err)
	}
	if corrupt {
		if err := flipMiddleByte(filepath.Join(dirB, walFile)); err != nil {
			fail("corrupting journal b: %v", err)
		}
	}
	// Gate: both journals — including a poisoned, torn, or crashed one —
	// replay into a recovered state that passes the recovery invariants,
	// and the one on the clean filesystem lost no record on the way.
	failures = append(failures, verifyJournalRecovers(campDomains[0], dirA, false)...)
	failures = append(failures, verifyJournalRecovers(campDomains[1], dirB, true)...)
	return fired, failures
}

// newCampaignRecorder builds a journal recorder with the daemon's
// degradation behavior: when the store poisons, detach and clamp the hold
// budget. The returned flag reports degradation that fired before the
// manager pointer was assigned (the store can poison during trace
// submission); the caller applies the clamp once the manager exists.
func newCampaignRecorder(store *journal.Store, mgr **resmgr.Manager) (*journal.Recorder, *bool) {
	degraded := new(bool)
	var rec *journal.Recorder
	rec = journal.NewRecorder(store,
		func() journal.Snapshot { return journal.ManagerSnapshot(*mgr) },
		func(error) {
			if store.Poisoned() != nil {
				rec.Detach()
				*degraded = true
				if m := *mgr; m != nil {
					m.SetHoldBudget(campHoldCap)
				}
			}
		})
	return rec, degraded
}

// verifyJournalRecovers reopens domain dc's journal directory cold —
// exactly what a restarted daemon does — and checks that replaying it into
// a manager built from dc satisfies the recovery invariants. Whatever the
// fault schedule did to the store, the surviving prefix must stay loadable
// and consistent. A journal on a cleanFS must also end cleanly: nothing but
// an injected fault tears a record in a process that never crashed.
func verifyJournalRecovers(dc coupled.DomainConfig, dir string, cleanFS bool) (problems []string) {
	domain := dc.Name
	st2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return []string{fmt.Sprintf("journal %s reopen: %v", domain, err)}
	}
	//simlint:allow R7 read-only reopen for the recovery gate; nothing is appended, so Close flushes nothing
	defer st2.Close()
	if torn := st2.Torn(); cleanFS && torn != nil {
		problems = append(problems, fmt.Sprintf("journal %s torn at offset %d without injected faults: %s", domain, torn.Off, torn.Reason))
	}
	snap, entries := st2.Recovered()
	if snap == nil && len(entries) == 0 {
		return problems // nothing was ever durably written; an empty journal is a clean cold start
	}
	rst, err := journal.Replay(snap, entries)
	if err != nil {
		return append(problems, fmt.Sprintf("journal %s replay: %v", domain, err))
	}
	m, err := coupled.NewManager(sim.NewEngine(), dc)
	if err != nil {
		return append(problems, fmt.Sprintf("journal %s manager: %v", domain, err))
	}
	if _, err := journal.Restore(m, rst); err != nil {
		return append(problems, fmt.Sprintf("journal %s restore: %v", domain, err))
	}
	for _, v := range invariant.RecoveryViolations(m, rst.Jobs) {
		problems = append(problems, fmt.Sprintf("journal %s recovery invariant: %s", domain, v))
	}
	return problems
}

// walFile is the name internal/journal gives its write-ahead log.
const walFile = "journal.wal"

// flipMiddleByte inverts the byte in the middle of the file at path.
func flipMiddleByte(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%s is empty", path)
	}
	data[len(data)/2] ^= 0xff
	return os.WriteFile(path, data, 0o644)
}
