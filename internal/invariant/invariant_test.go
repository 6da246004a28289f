package invariant_test

import (
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// TestFullSimulationUpholdsInvariants audits every lifecycle event of a
// paired two-domain simulation under each scheme combination.
func TestFullSimulationUpholdsInvariants(t *testing.T) {
	for _, schemes := range [][2]cosched.Scheme{
		{cosched.Hold, cosched.Hold},
		{cosched.Hold, cosched.Yield},
		{cosched.Yield, cosched.Yield},
	} {
		specA := workload.Spec{
			Name: "a", Jobs: 80, Span: 6 * sim.Hour,
			Sizes:     []workload.SizeClass{{Nodes: 8, Weight: 0.5}, {Nodes: 24, Weight: 0.5}},
			RuntimeMu: 6.1, RuntimeSigma: 0.9,
			MinRuntime: sim.Minute, MaxRuntime: sim.Hour,
			WallFactorMin: 1.2, WallFactorMax: 2.2, Seed: 61,
		}
		a, err := workload.Generate(specA)
		if err != nil {
			t.Fatal(err)
		}
		specB := specA
		specB.Seed = 62
		specB.Sizes = []workload.SizeClass{{Nodes: 2, Weight: 1}}
		b, err := workload.Generate(specB)
		if err != nil {
			t.Fatal(err)
		}
		workload.PairNearest(workload.NewRNG(63), a, b, "A", "B", 25, sim.Hour)

		// The auditors need the managers, which exist only after New.
		audA, audB := invariant.NewDeferred(), invariant.NewDeferred()
		s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true,
				Cosched: cosched.DefaultConfig(schemes[0]), Trace: a, Observer: audA},
			{Name: "B", Nodes: 16, Backfilling: true,
				Cosched: cosched.DefaultConfig(schemes[1]), Trace: b, Observer: audB},
		}})
		if err != nil {
			t.Fatal(err)
		}
		audA.Bind(s.Manager("A"))
		audB.Bind(s.Manager("B"))

		res := s.Run()
		if res.StuckJobs != 0 || res.CoStartViolations != 0 {
			t.Fatalf("%v: stuck=%d viol=%d", schemes, res.StuckJobs, res.CoStartViolations)
		}
		for _, aud := range []*invariant.Auditor{audA, audB} {
			if aud.Events() == 0 {
				t.Fatalf("%v: auditor saw no events", schemes)
			}
			if v := aud.Violations(); len(v) != 0 {
				t.Fatalf("%v: %d invariant violations, first: %s", schemes, len(v), v[0])
			}
		}
	}
}

// TestAuditorDetectsInconsistency feeds the auditor a fabricated bad event
// to prove it actually fires.
func TestAuditorDetectsInconsistency(t *testing.T) {
	eng := sim.NewEngine()
	m := resmgr.New(eng, resmgr.Options{Name: "X", Pool: cluster.New("X", 16)})
	aud := invariant.New(m)
	j := job.New(1, 4, 0, 100, 100)
	// A "started" job that is actually still unsubmitted, with a bogus
	// start time.
	aud.JobStarted(50, j)
	if len(aud.Violations()) == 0 {
		t.Fatal("auditor accepted an inconsistent start event")
	}
}

// TestAuditorCoversCancellation cancels jobs mid-simulation under audit.
func TestAuditorCoversCancellation(t *testing.T) {
	eng := sim.NewEngine()
	aud := invariant.NewDeferred()
	m := resmgr.New(eng, resmgr.Options{Name: "C", Pool: cluster.New("C", 32),
		Backfilling: true, Observer: aud})
	aud.Bind(m)

	running := job.New(1, 32, 0, 10000, 10000)
	queued := job.New(2, 32, 5, 600, 600)
	if err := m.SubmitAt(running); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitAt(queued); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.At(100, sim.PriorityDefault, func(sim.Time) {
		if err := m.Cancel(1); err != nil {
			t.Errorf("cancel running: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if running.State != job.Cancelled || queued.State != job.Completed {
		t.Fatalf("states: %s / %s", running.State, queued.State)
	}
	if v := aud.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if aud.Events() == 0 {
		t.Fatal("no audited events")
	}
}

// TestAuditorFlagsBadYieldAndHoldEvents exercises the remaining detectors.
func TestAuditorFlagsBadYieldAndHoldEvents(t *testing.T) {
	eng := sim.NewEngine()
	m := resmgr.New(eng, resmgr.Options{Name: "X", Pool: cluster.New("X", 16)})
	aud := invariant.New(m)
	j := job.New(1, 4, 0, 100, 100)
	aud.JobYielded(0, j)   // yield with count 0, state unsubmitted
	aud.JobHeld(0, j)      // held with no pool-held nodes
	aud.JobCompleted(0, j) // completed in wrong state
	aud.JobReleased(0, j, true)
	aud.JobCancelled(0, j)
	if len(aud.Violations()) < 5 {
		t.Fatalf("violations = %d, want ≥5:\n%v", len(aud.Violations()), aud.Violations())
	}
}
