package policy

import (
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

func TestIsTimeInvariant(t *testing.T) {
	cases := []struct {
		p    Policy
		want bool
	}{
		{FCFS{}, true},
		{SJF{}, true},
		{LargestFirst{}, true},
		{WFP{}, false},
		{NewFairShare(WFP{}, 0), false},
	}
	for _, c := range cases {
		if got := IsTimeInvariant(c.p); got != c.want {
			t.Errorf("IsTimeInvariant(%s) = %v, want %v", c.p.Name(), got, c.want)
		}
	}
}

// The marker must be truthful: invariant policies really do score
// identically at every instant.
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

// Precedes is the single comparator shared by Orderer.Order and the
// resource manager's binary-search queue insertion; it must be a strict
// total order over distinct jobs.
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
// Order's permutation with every non-fitting job but the first removed (and
// that one too when nothing fits), built from the same Score and boost calls
// in the same sequence.
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
		boost := func(j *job.Job) float64 { return YieldBoost(int(j.ID) % 3) }

		full := &callLog{Policy: WFP{}}
		var want []job.ID
		blocked, fits := false, 0
		for _, j := range Order(full, q, now, boost) {
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
		got := ids(o.OrderFitting(reduced, q, now, boost, charge, free))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (free %d): reduced order %v, want %v", trial, free, got, want)
		}
		if !slices.Equal(reduced.scored, full.scored) {
			t.Fatalf("trial %d: Score calls %v, Order made %v", trial, reduced.scored, full.scored)
		}
		if all := ids(o.OrderFitting(WFP{}, q, now, boost, nil, 0)); !slices.Equal(all, ids(Order(WFP{}, q, now, boost))) {
			t.Fatalf("trial %d: nil charge gave %v, not the full order", trial, all)
		}
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
		if &out[0] != &o.out[0] || cap(o.out) < len(q)+1 {
			t.Fatalf("queue of %d: result not backed by a buffer with room for the head slot (cap %d)", len(q), cap(o.out))
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
