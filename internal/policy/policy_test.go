package policy

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cosched/internal/job"
	"cosched/internal/sim"
)

func mkjob(id job.ID, nodes int, submit sim.Time, wall sim.Duration) *job.Job {
	return job.New(id, nodes, submit, wall, wall)
}

func TestFCFSOrder(t *testing.T) {
	q := []*job.Job{
		mkjob(1, 4, 300, 600),
		mkjob(2, 4, 100, 600),
		mkjob(3, 4, 200, 600),
	}
	got := Order(FCFS{}, q, 1000, nil)
	want := []job.ID{2, 3, 1}
	for i, j := range got {
		if j.ID != want[i] {
			t.Fatalf("order = %v, want %v", ids(got), want)
		}
	}
}

func TestWFPFavorsLongWaitRelativeToWalltime(t *testing.T) {
	// Same size; the job that has waited longer relative to its walltime
	// must come first.
	a := mkjob(1, 64, 0, 10*sim.Hour)   // waited 1h of a 10h request
	b := mkjob(2, 64, 0, 30*sim.Minute) // waited 1h of a 30m request
	got := Order(WFP{}, []*job.Job{a, b}, 1*sim.Hour, nil)
	if got[0].ID != 2 {
		t.Fatalf("WFP put %v first, want job 2 (relative wait 2.0 vs 0.1)", got[0].ID)
	}
}

func TestWFPFavorsLargeJobs(t *testing.T) {
	a := mkjob(1, 512, 0, sim.Hour)
	b := mkjob(2, 8192, 0, sim.Hour)
	got := Order(WFP{}, []*job.Job{a, b}, 30*sim.Minute, nil)
	if got[0].ID != 2 {
		t.Fatal("WFP must favor the larger job at equal relative wait")
	}
}

func TestWFPScoreGrowsWithTime(t *testing.T) {
	j := mkjob(1, 64, 0, sim.Hour)
	w := WFP{}
	prev := -1.0
	for _, now := range []sim.Time{0, 600, 3600, 7200, 86400} {
		s := w.Score(j, now)
		if s < prev {
			t.Fatalf("WFP score decreased over time: %g after %g", s, prev)
		}
		prev = s
	}
}

func TestWFPNegativeWaitClamped(t *testing.T) {
	j := mkjob(1, 64, 1000, sim.Hour)
	if s := (WFP{}).Score(j, 500); s != 0 {
		t.Fatalf("score before submit = %g, want 0", s)
	}
}

func TestOrderTieBreaksBySubmitThenID(t *testing.T) {
	q := []*job.Job{
		mkjob(5, 4, 100, 600),
		mkjob(2, 4, 100, 600),
		mkjob(9, 4, 50, 600),
	}
	// FCFS gives jobs 5 and 2 identical scores (same submit).
	got := Order(FCFS{}, q, 1000, nil)
	want := []job.ID{9, 2, 5}
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("order = %v, want %v", ids(got), want)
		}
	}
}

func TestOrderDoesNotMutateInput(t *testing.T) {
	q := []*job.Job{mkjob(1, 4, 300, 600), mkjob(2, 4, 100, 600)}
	Order(FCFS{}, q, 1000, nil)
	if q[0].ID != 1 || q[1].ID != 2 {
		t.Fatal("Order mutated the input slice")
	}
}

func TestBoostDemotion(t *testing.T) {
	q := []*job.Job{
		mkjob(1, 40960, 0, sim.Minute), // huge WFP score
		mkjob(2, 1, 900, sim.Hour),
	}
	demote := func(j *job.Job) float64 {
		if j.ID == 1 {
			return DemotionBoost
		}
		return 0
	}
	got := Order(WFP{}, q, 30*sim.Day, demote)
	if got[len(got)-1].ID != 1 {
		t.Fatal("demoted job not last")
	}
}

func TestBoostEscalation(t *testing.T) {
	q := []*job.Job{
		mkjob(1, 40960, 0, sim.Minute),
		mkjob(2, 1, 900, sim.Hour),
	}
	esc := func(j *job.Job) float64 {
		if j.ID == 2 {
			return EscalationBoost
		}
		return 0
	}
	got := Order(WFP{}, q, 30*sim.Day, esc)
	if got[0].ID != 2 {
		t.Fatal("escalated job not first")
	}
}

func TestYieldBoostMonotone(t *testing.T) {
	prev := -1.0
	for n := 0; n <= 100; n++ {
		b := YieldBoost(n)
		if b < prev {
			t.Fatalf("YieldBoost(%d) = %g < previous %g", n, b, prev)
		}
		prev = b
	}
	if YieldBoost(5) <= 0 {
		t.Fatal("YieldBoost(5) must be positive")
	}
	if YieldBoost(1000000) >= EscalationBoost {
		t.Fatal("YieldBoost must stay below EscalationBoost")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "wfp", "fcfs", "sjf", "largest"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) found")
	}
}

func TestSJFAndLargest(t *testing.T) {
	q := []*job.Job{
		mkjob(1, 100, 0, 2*sim.Hour),
		mkjob(2, 10, 0, sim.Hour),
	}
	if got := Order(SJF{}, q, 10, nil); got[0].ID != 2 {
		t.Fatal("SJF must put the shorter job first")
	}
	if got := Order(LargestFirst{}, q, 10, nil); got[0].ID != 1 {
		t.Fatal("LargestFirst must put the bigger job first")
	}
}

// Property: Order returns a permutation of its input for every policy.
func TestOrderPermutationProperty(t *testing.T) {
	pols := []Policy{FCFS{}, WFP{}, SJF{}, LargestFirst{}}
	f := func(sizes []uint8, now uint32) bool {
		var q []*job.Job
		for i, s := range sizes {
			q = append(q, mkjob(job.ID(i+1), int(s)+1, sim.Time(s)*7, sim.Duration(s+1)*60))
		}
		for _, p := range pols {
			got := Order(p, q, sim.Time(now), nil)
			if len(got) != len(q) {
				return false
			}
			seen := make(map[job.ID]bool)
			for _, j := range got {
				if seen[j.ID] {
					return false
				}
				seen[j.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FCFS, SJF and LargestFirst score from a job's request fields alone, so
// their scores are the same at every instant.
func TestTimeInvariantScoresDoNotDependOnNow(t *testing.T) {
	j := mkjob(3, 128, 500, 2*sim.Hour)
	for _, p := range []Policy{FCFS{}, SJF{}, LargestFirst{}} {
		base := p.Score(j, 0)
		for _, now := range []sim.Time{1, 600, 86400, 30 * sim.Day} {
			if s := p.Score(j, now); s != base {
				t.Errorf("%s.Score changed with now: %g vs %g", p.Name(), s, base)
			}
		}
	}
}

// Precedes is the single comparator of every Orderer path (the insertion
// pass and the outright sort); it must be a strict total order over
// distinct jobs.
func TestPrecedesTotalOrder(t *testing.T) {
	a := mkjob(1, 4, 100, 600)
	b := mkjob(2, 4, 100, 600)
	if Precedes(0, a, 0, a) {
		t.Fatal("Precedes must be irreflexive")
	}
	if !Precedes(0, a, 0, b) || Precedes(0, b, 0, a) {
		t.Fatal("equal score+submit must break by ID exactly one way")
	}
	if !Precedes(1, b, 0, a) {
		t.Fatal("higher score must precede")
	}
	c := mkjob(3, 4, 50, 600)
	if !Precedes(0, c, 0, a) {
		t.Fatal("earlier submit must precede at equal score")
	}
}

// Satellite: Orderer buffer reuse across nested Order calls. The contract
// is that the returned slice is valid only until the next Order call on
// the same Orderer; this pins the aliasing (same backing array reused),
// that a copy taken before the nested call survives it, and that growth
// past the buffer capacity still orders correctly.
func TestOrdererBufferReuseAcrossNestedCalls(t *testing.T) {
	var o Orderer
	q1 := []*job.Job{
		mkjob(1, 4, 300, 600),
		mkjob(2, 4, 100, 600),
		mkjob(3, 4, 200, 600),
	}
	first := o.Order(FCFS{}, q1, 1000, nil)
	saved := append([]job.ID(nil), ids(first)...)
	wantFirst := []job.ID{2, 3, 1}
	for i := range wantFirst {
		if saved[i] != wantFirst[i] {
			t.Fatalf("first order = %v, want %v", saved, wantFirst)
		}
	}

	// Nested call while `first` is still in scope: same-size queue must
	// reuse the same backing array, invalidating `first` as documented.
	q2 := []*job.Job{
		mkjob(7, 4, 30, 600),
		mkjob(8, 4, 10, 600),
		mkjob(9, 4, 20, 600),
	}
	second := o.Order(FCFS{}, q2, 1000, nil)
	if &first[0] != &second[0] {
		t.Fatal("Orderer allocated a fresh output buffer for a same-size nested call")
	}
	wantSecond := []job.ID{8, 9, 7}
	for i := range wantSecond {
		if second[i].ID != wantSecond[i] {
			t.Fatalf("nested order = %v, want %v", ids(second), wantSecond)
		}
	}
	// The pre-nesting copy still holds the first ordering.
	for i := range wantFirst {
		if saved[i] != wantFirst[i] {
			t.Fatalf("saved copy corrupted by nested call: %v", saved)
		}
	}

	// Growth: a larger queue reallocates but must still be correct, and a
	// subsequent small call reuses the grown buffer.
	var q3 []*job.Job
	for i := 0; i < 64; i++ {
		q3 = append(q3, mkjob(job.ID(100+i), 4, sim.Time(1000-i), 600))
	}
	third := o.Order(FCFS{}, q3, 2000, nil)
	for i := 1; i < len(third); i++ {
		if third[i-1].SubmitTime > third[i].SubmitTime {
			t.Fatal("grown-buffer order not sorted by submit time")
		}
	}
	fourth := o.Order(FCFS{}, q2, 1000, nil)
	if &fourth[0] != &third[0] {
		t.Fatal("Orderer did not reuse the grown buffer for a smaller call")
	}
}

func ids(js []*job.Job) []job.ID {
	out := make([]job.ID, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

// callLog records the jobs a policy was asked to score, in call order.
type callLog struct {
	Policy
	scored []job.ID
}

func (c *callLog) Score(j *job.Job, now sim.Time) float64 {
	c.scored = append(c.scored, j.ID)
	return c.Policy.Score(j, now)
}

// TestOrderFittingIsOrderMinusUnplannable pins what the reduced order is:
// Order's permutation with every job wider than fit but the first removed
// (and that one too when nothing fits), built from the same Score and boost
// calls in the same sequence, and the queue left in Order's permutation.
// fit is derived as cluster.Pool.Fit derives it: the widest request whose
// charge fits the free nodes.
func TestOrderFittingIsOrderMinusUnplannable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pow2 := func(n int) int { // partitioned pool: next power of two, at least 8
		c := 8
		for c < n {
			c *= 2
		}
		return c
	}
	for trial := 0; trial < 500; trial++ {
		q := make([]*job.Job, rng.Intn(24))
		for i := range q {
			q[i] = mkjob(job.ID(i+1), 1+rng.Intn(64), sim.Time(rng.Intn(5)*100), sim.Duration(60+rng.Intn(3)*600))
		}
		charge := func(n int) int { return n }
		if trial%2 == 1 {
			charge = pow2
		}
		free, now := rng.Intn(80), sim.Time(1000)
		fit := 0
		for n := 1; n <= 64; n++ {
			if charge(n) <= free {
				fit = n
			}
		}
		boost := func(j *job.Job) float64 { return YieldBoost(int(j.ID) % 3) }

		full := &callLog{Policy: WFP{}}
		order := Order(full, q, now, boost)
		var want []job.ID
		blocked, fits := false, 0
		for _, j := range order {
			if charge(j.Nodes) <= free {
				want = append(want, j.ID)
				fits++
			} else if !blocked {
				want = append(want, j.ID)
				blocked = true
			}
		}
		if fits == 0 {
			want = nil
		}

		reduced := &callLog{Policy: WFP{}}
		var o Orderer
		inPlace := slices.Clone(q)
		got := ids(o.OrderFitting(reduced, inPlace, now, boost, fit, nil))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (free %d, fit %d): reduced order %v, want %v", trial, free, fit, got, want)
		}
		if !slices.Equal(reduced.scored, full.scored) {
			t.Fatalf("trial %d: Score calls %v, Order made %v", trial, reduced.scored, full.scored)
		}
		if !slices.Equal(ids(inPlace), ids(order)) {
			t.Fatalf("trial %d: queue left as %v, want Order's %v", trial, ids(inPlace), ids(order))
		}
		if all := ids(o.OrderFitting(WFP{}, slices.Clone(q), now, boost, math.MaxInt, nil)); !slices.Equal(all, ids(Order(WFP{}, q, now, boost))) {
			t.Fatalf("trial %d: fit math.MaxInt gave %v, not the full order", trial, all)
		}
	}
}

// FuzzOrderFitting drives OrderFitting's restoring pass against an oracle
// that scores through Policy.Score and sorts with slices.SortFunc: the
// reduced order must equal the oracle's order minus the skipped jobs and
// the unplannable ones, and the queue it leaves behind the oracle's
// permutation of every job, skipped ones included — on shuffled, nearly
// sorted, rotated and reversed queues, at random instants, with demotion,
// escalation and yield boosts, a random fit and a random skip set (the
// jobs that yielded at the instant). A second call a random time later on
// the same Orderer reorders the queue the first left nearly sorted, the
// path every scheduling iteration takes.
func FuzzOrderFitting(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0), uint8(0), int16(20), uint16(500))
	f.Add(int64(2), uint8(200), uint8(1), uint8(0), uint8(0), int16(64), uint16(0))
	f.Add(int64(3), uint8(120), uint8(2), uint8(1), uint8(1), int16(-1), uint16(3000))
	f.Add(int64(4), uint8(255), uint8(3), uint8(2), uint8(2), int16(8), uint16(60))
	f.Add(int64(5), uint8(90), uint8(1), uint8(3), uint8(0), int16(0), uint16(7))
	f.Fuzz(checkOrderFitting)
}

// TestOrderFittingMatchesSortOracle runs FuzzOrderFitting's check on 1,000
// drawn inputs, so a plain go test covers every queue shape, policy and
// boost without the fuzzing engine.
func TestOrderFittingMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 1000; i++ {
		checkOrderFitting(t, rng.Int63(), uint8(rng.Intn(256)), uint8(i), uint8(i/5), uint8(i/20),
			int16(rng.Intn(80)-8), uint16(rng.Intn(4000)))
	}
}

// checkOrderFitting is FuzzOrderFitting's property for one input.
func checkOrderFitting(t *testing.T, seed int64, n, shape, boostKind, polKind uint8, fit16 int16, step uint16) {
	rng := rand.New(rand.NewSource(seed))
	q := make([]*job.Job, n)
	for i := range q {
		wall := sim.Duration(1 + rng.Intn(4)*900 + rng.Intn(60))
		q[i] = mkjob(job.ID(i+1), 1+rng.Intn(64), sim.Time(rng.Intn(8)*300), wall)
		q[i].User = rng.Intn(4)
	}
	var p Policy
	switch polKind % 3 {
	case 0:
		p = WFP{}
	case 1:
		fs := NewFairShare(WFP{}, sim.Day)
		for _, j := range q[:len(q)/4] {
			fs.ObserveCompletion(j, 1000)
		}
		p = fs
	default:
		p = FCFS{}
	}
	var boost Boost
	switch boostKind % 4 {
	case 1: // the deadlock breaker's demotion band
		boost = func(j *job.Job) float64 {
			if j.ID%5 == 0 {
				return DemotionBoost
			}
			return 0
		}
	case 2: // escalation of repeatedly yielded jobs
		boost = func(j *job.Job) float64 {
			if j.ID%7 == 0 {
				return EscalationBoost
			}
			return 0
		}
	case 3: // per-yield boosting
		boost = func(j *job.Job) float64 { return YieldBoost(int(j.ID) % 4) }
	}
	fit := int(fit16)
	if fit < 0 {
		fit = math.MaxInt
	}
	now := sim.Time(2400 + rng.Intn(7200))
	oracle := func(q []*job.Job, now sim.Time) []*job.Job {
		key := make(map[*job.Job]float64, len(q))
		for _, j := range q {
			key[j] = p.Score(j, now)
			if boost != nil {
				key[j] += boost(j)
			}
		}
		out := slices.Clone(q)
		slices.SortFunc(out, func(a, b *job.Job) int {
			switch {
			case Precedes(key[a], a, key[b], b):
				return -1
			case Precedes(key[b], b, key[a], a):
				return 1
			}
			return 0
		})
		return out
	}

	// Arrange the queue as a scheduler might hand it over.
	switch shape % 5 {
	case 0: // shuffled: a restored queue
		rng.Shuffle(len(q), func(a, b int) { q[a], q[b] = q[b], q[a] })
	case 1: // nearly sorted: last iteration's order, a few swaps
		q = oracle(q, now-sim.Time(step))
		for k := 0; k < len(q)/16+1 && len(q) > 1; k++ {
			a := rng.Intn(len(q) - 1)
			q[a], q[a+1] = q[a+1], q[a]
		}
	case 2: // rotated: one far-travelling block
		q = oracle(q, now)
		if len(q) > 0 {
			r := rng.Intn(len(q))
			q = append(q[r:], q[:r]...)
		}
	case 3: // reversed
		q = oracle(q, now)
		slices.Reverse(q)
	case 4: // already sorted
		q = oracle(q, now)
	}

	// The skip set is drawn last, so the draws above are those of a check
	// without one. One input in four skips nothing; the others skip a third,
	// two thirds or all of the jobs on average.
	var skip func(*job.Job) bool
	if share := rng.Intn(4); share > 0 {
		skipped := make(map[*job.Job]bool)
		for _, j := range q {
			if rng.Intn(3) < share {
				skipped[j] = true
			}
		}
		skip = func(j *job.Job) bool { return skipped[j] }
	}

	var o Orderer
	for round := 0; round < 2; round++ {
		want := oracle(q, now)
		if ord := o.Order(p, q, now, boost); !slices.Equal(ids(ord), ids(want)) {
			t.Fatalf("round %d: Order %v, oracle %v", round, ids(ord), ids(want))
		}
		var reduced []job.ID
		blocked, fits := false, false
		for _, j := range want {
			if skip != nil && skip(j) {
				continue
			}
			if j.Nodes <= fit {
				reduced = append(reduced, j.ID)
				fits = true
			} else if !blocked {
				reduced = append(reduced, j.ID)
				blocked = true
			}
		}
		if !fits {
			reduced = nil
		}
		got := ids(o.OrderFitting(p, q, now, boost, fit, skip))
		if !slices.Equal(got, reduced) {
			t.Fatalf("round %d (fit %d): OrderFitting %v, want %v", round, fit, got, reduced)
		}
		if !slices.Equal(ids(q), ids(want)) {
			t.Fatalf("round %d: queue left as %v, want %v", round, ids(q), ids(want))
		}
		now += sim.Time(step)
	}
}

// TestOrdererGrowsGeometrically: a queue that creeps upward one job at a
// time must not reallocate the Orderer's buffers at every new maximum.
func TestOrdererGrowsGeometrically(t *testing.T) {
	var o Orderer
	var q []*job.Job
	var last **job.Job
	grown := 0
	for i := 0; i < 4096; i++ {
		q = append(q, mkjob(job.ID(i+1), 4, sim.Time(i), 600))
		out := o.Order(FCFS{}, q, 5000, nil)
		if &out[0] != &o.out[0] || cap(o.out) < len(q) {
			t.Fatalf("queue of %d: result not backed by the reusable buffer (cap %d)", len(q), cap(o.out))
		}
		if p := &o.out[0]; p != last {
			last = p
			grown++
		}
	}
	if grown > 14 {
		t.Fatalf("buffers reallocated %d times growing to 4096 jobs, want at most log2(4096)+2", grown)
	}
}
