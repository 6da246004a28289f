package coupled

import (
	"fmt"
	"strings"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// schedCoreScenario is one configuration cell of the core differential: the
// incremental core's specializations each engage under different settings
// (sorted queue needs a time-invariant policy without yield boosts, the
// maintained timeline needs a stable estimator; the no-fit elision runs under
// all of them), so the sweep covers every fallback combination.
type schedCoreScenario struct {
	name             string
	policy           string
	mode             string // backfill mode
	estimator        string
	schemeA, schemeB cosched.Scheme
	yieldBoost       bool
	release          sim.Duration
}

var schedCoreScenarios = []schedCoreScenario{
	// Fully incremental: sorted queue + maintained timeline.
	{name: "fcfs_easy_walltime_HH", policy: "fcfs", mode: "easy", estimator: "walltime",
		schemeA: cosched.Hold, schemeB: cosched.Hold, release: 10 * sim.Minute},
	// Time-varying policy: position-indexed queue + full sort per iteration.
	{name: "wfp_easy_walltime_HY", policy: "wfp", mode: "easy", estimator: "walltime",
		schemeA: cosched.Hold, schemeB: cosched.Yield, release: 10 * sim.Minute},
	// Conservative planner: the no-fit elision under full-profile planning.
	{name: "sjf_conservative_walltime_YY", policy: "sjf", mode: "conservative", estimator: "walltime",
		schemeA: cosched.Yield, schemeB: cosched.Yield},
	// Unstable estimator: timeline rebuilt per iteration.
	{name: "fcfs_easy_useravg_HH", policy: "fcfs", mode: "easy", estimator: "user-average",
		schemeA: cosched.Hold, schemeB: cosched.Hold, release: 10 * sim.Minute},
	// Everything degraded at once.
	{name: "wfp_conservative_useravg_YY", policy: "wfp", mode: "conservative", estimator: "user-average",
		schemeA: cosched.Yield, schemeB: cosched.Yield},
	// Yield boost disables the sorted queue even for a time-invariant policy.
	{name: "fcfs_easy_walltime_YY_boost", policy: "fcfs", mode: "easy", estimator: "walltime",
		schemeA: cosched.Yield, schemeB: cosched.Yield, yieldBoost: true},
	// Largest-first exercises the third time-invariant policy's comparator.
	{name: "largest_easy_walltime_HY", policy: "largest", mode: "easy", estimator: "walltime",
		schemeA: cosched.Hold, schemeB: cosched.Yield, release: 10 * sim.Minute},
}

// runSchedCoreScenario runs one scenario under the named core on freshly
// generated traces and renders the complete schedule. Every run is
// invariant-audited: a deferred Auditor per domain plus a shared deadlock
// Monitor, so a core divergence that also breaks accounting or wedges a
// circular wait is reported at the offending event, not as a schedule
// diff.
func runSchedCoreScenario(t *testing.T, sc schedCoreScenario, core string, seed uint64) string {
	t.Helper()
	a, b := smallTraces(seed, 60, 0.3)
	ca := cosched.DefaultConfig(sc.schemeA)
	cb := cosched.DefaultConfig(sc.schemeB)
	ca.ReleaseInterval, cb.ReleaseInterval = sc.release, sc.release
	ca.YieldBoost, cb.YieldBoost = sc.yieldBoost, sc.yieldBoost
	mon := invariant.NewMonitor()
	audA := invariant.NewDeferred(mon.Tap(nil))
	audB := invariant.NewDeferred(mon.Tap(nil))
	s, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 64, Policy: sc.policy, Backfilling: true, BackfillMode: sc.mode,
			Estimator: sc.estimator, SchedCore: core, Cosched: ca, Trace: a, Observer: audA},
		{Name: "B", Nodes: 8, Policy: sc.policy, Backfilling: true, BackfillMode: sc.mode,
			Estimator: sc.estimator, SchedCore: core, Cosched: cb, Trace: b, Observer: audB},
	}})
	if err != nil {
		t.Fatalf("%s/%s: %v", sc.name, core, err)
	}
	audA.Bind(s.Manager("A"))
	audB.Bind(s.Manager("B"))
	mon.Register(s.Manager("A"))
	mon.Register(s.Manager("B"))
	res := s.Run()
	for _, v := range append(append(append([]string{}, audA.Violations()...), audB.Violations()...), mon.Violations()...) {
		t.Errorf("%s/%s: invariant violation: %s", sc.name, core, v)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan=%d iterations=%d stuck=%d viol=%d\n",
		res.Makespan, res.Iterations, res.StuckJobs, res.CoStartViolations)
	renderTrace(&sb, "A", a)
	renderTrace(&sb, "B", b)
	return sb.String()
}

// renderTrace prints every observable per-job outcome.
func renderTrace(sb *strings.Builder, dom string, tr []*job.Job) {
	for _, j := range tr {
		fmt.Fprintf(sb, "%s %d %s start=%d end=%d yields=%d holds=%d heldns=%d\n",
			dom, j.ID, j.State, j.StartTime, j.EndTime, j.YieldCount, j.HoldCount, j.HeldNodeSeconds)
	}
}

// TestSchedCoreDifferentialCoupled runs every scenario under the reference
// and incremental cores and requires the full rendered schedules — every
// job's start/end/yield/hold history, the makespan, and the iteration count
// (elided iterations still count) — to match exactly.
func TestSchedCoreDifferentialCoupled(t *testing.T) {
	for _, sc := range schedCoreScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []uint64{11, 37} {
				ref := runSchedCoreScenario(t, sc, "reference", seed)
				inc := runSchedCoreScenario(t, sc, "incremental", seed)
				if ref != inc {
					t.Fatalf("seed %d: cores diverge\nreference:\n%s\nincremental:\n%s", seed, ref, inc)
				}
			}
		})
	}
}
