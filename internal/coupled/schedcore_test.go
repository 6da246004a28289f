package coupled

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// schedCoreScenario is one configuration cell of the core differential: the
// incremental core's specializations each engage under different settings
// (the maintained timeline needs a stable estimator, the reduced order the
// none or EASY planner; the order-keeping queue and the no-fit elision run
// under all of them), and how far the stored queue order drifts between
// iterations depends on the policy, the boosts and the demotions, so the
// sweep covers every fallback combination.
type schedCoreScenario struct {
	name             string
	policy           string // a policy.ByName name
	mode             string // backfill mode; "none" turns backfilling off
	estimator        string
	schemeA, schemeB cosched.Scheme
	yieldBoost       bool
	release          sim.Duration
	maxHeld          float64 // 0 is no cap
	maxYields        int
}

var schedCoreScenarios = []schedCoreScenario{
	// Fully incremental: maintained timeline, reduced order; a time-invariant
	// policy's stored order moves only around arrivals and demotions.
	{name: "fcfs_easy_walltime_HH", policy: "fcfs", mode: "easy", estimator: "walltime",
		schemeA: cosched.Hold, schemeB: cosched.Hold, release: 10 * sim.Minute},
	// Time-varying policy: the stored order goes stale between iterations.
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
	// Yield boosts move a yielder's score, so its stored place goes stale.
	{name: "fcfs_easy_walltime_YY_boost", policy: "fcfs", mode: "easy", estimator: "walltime",
		schemeA: cosched.Yield, schemeB: cosched.Yield, yieldBoost: true},
	// Largest-first exercises the third time-invariant policy's comparator.
	{name: "largest_easy_walltime_HY", policy: "largest", mode: "easy", estimator: "walltime",
		schemeA: cosched.Hold, schemeB: cosched.Yield, release: 10 * sim.Minute},
	// SJF with holds released every 10 minutes: a demotion iteration
	// reorders the queue in place and the next one mends it back.
	{name: "sjf_easy_walltime_HH", policy: "sjf", mode: "easy", estimator: "walltime",
		schemeA: cosched.Hold, schemeB: cosched.Hold, release: 10 * sim.Minute},
}

// runSchedCoreScenario runs one scenario under the named core on freshly
// generated traces and renders the complete schedule.
func runSchedCoreScenario(t *testing.T, sc schedCoreScenario, core string, seed uint64) string {
	t.Helper()
	a, b := smallTraces(seed, 60, 0.3)
	return runSchedCore(t, sc, core, a, b, 0)
}

// runSchedCore runs sc under the named core on traces a and b, which it
// mutates, up to horizon (0 derives one from the traces), and renders the
// complete schedule. Every run is
// invariant-audited: a deferred Auditor per domain plus a shared deadlock
// Monitor, so a core divergence that also breaks accounting or wedges a
// circular wait is reported at the offending event, not as a schedule
// diff; and a livelockGuard stops a run whose clock no longer moves.
func runSchedCore(t *testing.T, sc schedCoreScenario, core string, a, b []*job.Job, horizon sim.Time) string {
	t.Helper()
	config := func(scheme cosched.Scheme) cosched.Config {
		c := cosched.DefaultConfig(scheme)
		c.ReleaseInterval, c.YieldBoost = sc.release, sc.yieldBoost
		c.MaxYields = sc.maxYields
		if sc.maxHeld > 0 {
			c.MaxHeldFraction = sc.maxHeld
		}
		return c
	}
	domain := func(name string, nodes int, scheme cosched.Scheme, tr []*job.Job, obs resmgr.Observer) DomainConfig {
		// ByName makes a fresh policy per call, so a stateful one (fair
		// share) keeps one domain's usage to itself.
		pol, ok := policy.ByName(sc.policy)
		if !ok {
			t.Fatalf("%s: unknown policy %q", sc.name, sc.policy)
		}
		dc := DomainConfig{Name: name, Nodes: nodes, Policy: pol, Backfilling: sc.mode != "none",
			Estimator: sc.estimator, SchedCore: core, Cosched: config(scheme), Trace: tr, Observer: obs}
		if dc.Backfilling {
			dc.BackfillMode = sc.mode
		}
		return dc
	}
	mon := invariant.NewMonitor()
	audA, audB := invariant.NewDeferred(), invariant.NewDeferred()
	guard := &livelockGuard{t: t, what: sc.name + "/" + core}
	s, err := New(Options{Horizon: horizon, Domains: []DomainConfig{
		domain("A", 64, sc.schemeA, a, resmgr.Tee{audA, mon, guard}),
		domain("B", 8, sc.schemeB, b, resmgr.Tee{audB, mon, guard}),
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

// livelockGuard fails a run in which one virtual instant sees more holds,
// yields and releases than its jobs could make there: a scheduling
// livelock (a job planned again at the instant it yielded, yielding again)
// never moves the clock, so no horizon would end it.
type livelockGuard struct {
	resmgr.NullObserver
	t    testing.TB
	what string
	at   sim.Time
	n    int
}

func (g *livelockGuard) tick(now sim.Time) {
	if now != g.at {
		g.at, g.n = now, 0
	}
	if g.n++; g.n > 10_000 {
		g.t.Fatalf("%s: livelock: more than 10000 holds, yields and releases at t=%d", g.what, now)
	}
}

func (g *livelockGuard) JobHeld(now sim.Time, _ *job.Job)             { g.tick(now) }
func (g *livelockGuard) JobYielded(now sim.Time, _ *job.Job)          { g.tick(now) }
func (g *livelockGuard) JobReleased(now sim.Time, _ *job.Job, _ bool) { g.tick(now) }

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

// The choices a FuzzSchedCoreDifferential input indexes, one byte each.
var (
	fuzzPolicies   = []string{"wfp", "fcfs", "sjf", "largest", "fairshare"}
	fuzzModes      = []string{"none", "easy", "conservative"}
	fuzzEstimators = []string{"walltime", "user-average"}
	fuzzReleases   = []sim.Duration{0, 5 * sim.Minute, 10 * sim.Minute, 20 * sim.Minute}
	fuzzMaxHeld    = []float64{0, 0.5, 0.25, 0.1}
	fuzzMaxYields  = []int{0, 1, 2, 4}
)

// fuzzHorizon bounds a FuzzSchedCoreDifferential run.
const fuzzHorizon = 4 * sim.Day

// fuzzBytes reads a fuzz input one byte at a time, zeros past its end.
type fuzzBytes []byte

func (d *fuzzBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b)
}

// decodeFuzzCell reads a scenario and a pair of traces from data. The
// traces come back as a function that makes fresh copies, since every run
// mutates its jobs. Each domain draws at most 16 jobs — nodes within its
// pool, runtime, walltime, user, the gap since the previous submission —
// and every A job may pair with a B job not yet paired. A domain's jobs
// are numbered 1..n in submit order, n..1, or sparsely, so SubmitTrace's
// adopting path and its job-by-job path both run.
func decodeFuzzCell(data []byte) (schedCoreScenario, func() (a, b []*job.Job)) {
	d := fuzzBytes(data)
	pick := func(n int) int { return d.next() % n }
	sc := schedCoreScenario{name: "fuzz"}
	sc.policy = fuzzPolicies[pick(len(fuzzPolicies))]
	sc.mode = fuzzModes[pick(len(fuzzModes))]
	sc.estimator = fuzzEstimators[pick(len(fuzzEstimators))]
	flags := d.next()
	sc.schemeA, sc.schemeB = cosched.Hold, cosched.Hold
	if flags&1 != 0 {
		sc.schemeA = cosched.Yield
	}
	if flags&2 != 0 {
		sc.schemeB = cosched.Yield
	}
	sc.yieldBoost = flags&4 != 0
	sc.release = fuzzReleases[pick(len(fuzzReleases))]
	sc.maxHeld = fuzzMaxHeld[pick(len(fuzzMaxHeld))]
	sc.maxYields = fuzzMaxYields[pick(len(fuzzMaxYields))]

	type draw struct {
		id                job.ID
		nodes, user       int
		submit            sim.Time
		runtime, walltime sim.Duration
		mate              int // index into the other domain's draws; -1 for none
	}
	pools := [2]int{64, 8}
	var n, numbering [2]int
	for k := range n {
		n[k], numbering[k] = pick(17), pick(3)
	}
	var draws [2][]draw
	for k := range draws {
		var at sim.Time
		for i := 0; i < n[k]; i++ {
			at += sim.Time(pick(8)) * 5 * sim.Minute
			rt := sim.Duration(1+pick(60)) * sim.Minute
			draws[k] = append(draws[k], draw{
				nodes: 1 + pick(pools[k]), user: pick(3), submit: at,
				runtime: rt, walltime: rt + sim.Duration(pick(4))*15*sim.Minute, mate: -1,
			})
		}
		for i := range draws[k] {
			switch numbering[k] {
			case 0:
				draws[k][i].id = job.ID(i + 1)
			case 1:
				draws[k][i].id = job.ID(n[k] - i)
			default:
				draws[k][i].id = job.ID(1000 + 37*i)
			}
		}
	}
	for i := range draws[0] {
		if c := d.next(); c < 128 && n[1] > 0 {
			if m := c % n[1]; draws[1][m].mate < 0 {
				draws[0][i].mate, draws[1][m].mate = m, i
			}
		}
	}
	names := [2]string{"A", "B"}
	return sc, func() (a, b []*job.Job) {
		var tr [2][]*job.Job
		for k := range tr {
			for _, dr := range draws[k] {
				j := job.New(dr.id, dr.nodes, dr.submit, dr.runtime, dr.walltime)
				j.User = dr.user
				if dr.mate >= 0 {
					j.Mates = []job.MateRef{{Domain: names[1-k], Job: draws[1-k][dr.mate].id}}
				}
				tr[k] = append(tr[k], j)
			}
		}
		return tr[0], tr[1]
	}
}

// encodeFuzzSeed writes sc's settings as a FuzzSchedCoreDifferential
// header, 16 numbered jobs per domain, and job bytes drawn from seed.
func encodeFuzzSeed(sc schedCoreScenario, seed int64) []byte {
	flags := 0
	if sc.schemeA == cosched.Yield {
		flags |= 1
	}
	if sc.schemeB == cosched.Yield {
		flags |= 2
	}
	if sc.yieldBoost {
		flags |= 4
	}
	out := []byte{
		byte(slices.Index(fuzzPolicies, sc.policy)), byte(slices.Index(fuzzModes, sc.mode)),
		byte(slices.Index(fuzzEstimators, sc.estimator)), byte(flags),
		byte(slices.Index(fuzzReleases, sc.release)), byte(slices.Index(fuzzMaxHeld, sc.maxHeld)),
		byte(slices.Index(fuzzMaxYields, sc.maxYields)), 16, 0, 16, 0,
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*16*6+16; i++ {
		out = append(out, byte(rng.Intn(256)))
	}
	return out
}

// TestFuzzSeedsDecodeToTheScenarios: each of the eight scenarios, encoded
// as a seed, decodes back to itself, so the seed corpus runs them.
func TestFuzzSeedsDecodeToTheScenarios(t *testing.T) {
	for _, sc := range schedCoreScenarios {
		got, traces := decodeFuzzCell(encodeFuzzSeed(sc, 11))
		got.name = sc.name
		if got != sc {
			t.Fatalf("seed of %s decodes to %+v", sc.name, got)
		}
		if a, b := traces(); len(a) != 16 || len(b) != 16 || a[15].ID != 16 || b[15].ID != 16 {
			t.Fatalf("seed of %s: %d and %d jobs, want 16 numbered 1..16 each", sc.name, len(a), len(b))
		}
	}
}

// FuzzSchedCoreDifferential runs one small coupled cell, its settings and
// both traces drawn from the input (decodeFuzzCell), under the reference
// and the incremental core, audited, and requires the two rendered
// schedules to be equal: every job's state, start, end, yields, holds and
// held node-seconds, the makespan and the iteration count. The seed corpus
// is the eight schedCoreScenarios.
//
// A cell's jobs all arrive within ten hours and fit a few days run
// serially, so the run stops at fuzzHorizon: a few cells never drain even
// with their holds released on an interval, and the default horizon, a
// year past the last arrival, would spend up to seconds of release scans
// on each.
func FuzzSchedCoreDifferential(f *testing.F) {
	for i, sc := range schedCoreScenarios {
		f.Add(encodeFuzzSeed(sc, int64(11+i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, traces := decodeFuzzCell(data)
		a, b := traces()
		ref := runSchedCore(t, sc, "reference", a, b, fuzzHorizon)
		a, b = traces()
		inc := runSchedCore(t, sc, "incremental", a, b, fuzzHorizon)
		if ref != inc {
			t.Fatalf("%+v: cores diverge\nreference:\n%s\nincremental:\n%s", sc, ref, inc)
		}
	})
}
