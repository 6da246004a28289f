package backfill

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// usedAt returns the committed nodes at instant x.
func (t *Timeline) usedAt(x sim.Time) int {
	if i := t.segment(x); i >= 0 {
		return t.used[i]
	}
	return 0
}

func TestTimelineAddAndQuery(t *testing.T) {
	tl := NewTimeline(100)
	if !tl.Fits(0, 100, 100) {
		t.Fatal("empty timeline rejects full machine")
	}
	tl.Add(10, 100, 60) // [10, 110): 60 nodes
	if tl.usedAt(9) != 0 || tl.usedAt(10) != 60 || tl.usedAt(109) != 60 || tl.usedAt(110) != 0 {
		t.Fatalf("step function wrong: %d %d %d %d",
			tl.usedAt(9), tl.usedAt(10), tl.usedAt(109), tl.usedAt(110))
	}
	// 50 nodes overlapping the window must be rejected, 40 accepted.
	if tl.Fits(0, 20, 50) {
		t.Fatal("overlapping over-commit accepted")
	}
	if !tl.Fits(0, 20, 40) {
		t.Fatal("fitting commit rejected")
	}
	// Fully after the window: fine.
	if !tl.Fits(110, 1000, 100) {
		t.Fatal("post-window commit rejected")
	}
	tl.Add(10, 100, -60)
	if tl.usedAt(50) != 0 {
		t.Fatal("removing the commitment did not free its nodes")
	}
}

func TestTimelineRejectsBadArgs(t *testing.T) {
	tl := NewTimeline(10)
	for _, c := range []struct {
		dur   sim.Duration
		nodes int
	}{{10, 11}, {0, 5}, {-1, 5}, {10, 0}, {10, -1}} {
		if tl.Fits(0, c.dur, c.nodes) {
			t.Errorf("Fits(0, %d, %d) accepted", c.dur, c.nodes)
		}
		if got := tl.EarliestStart(0, c.dur, c.nodes); got != Infinity {
			t.Errorf("EarliestStart(0, %d, %d) = %d, want Infinity", c.dur, c.nodes, got)
		}
	}
}

func TestTimelineEarliestStart(t *testing.T) {
	tl := NewTimeline(100)
	// Two committed layers: [0,100): 70 nodes; [100,200): 40 nodes.
	tl.Add(0, 100, 70)
	tl.Add(100, 100, 40)
	cases := []struct {
		nodes int
		dur   sim.Duration
		want  sim.Time
	}{
		{30, 50, 0},    // fits beside the 70
		{40, 50, 100},  // must wait for the first layer to end
		{70, 50, 200},  // must wait for both
		{100, 10, 200}, // whole machine
	}
	for _, c := range cases {
		if got := tl.EarliestStart(0, c.dur, c.nodes); got != c.want {
			t.Errorf("EarliestStart(%d nodes, %d s) = %d, want %d", c.nodes, c.dur, got, c.want)
		}
	}
	// `after` is respected.
	if got := tl.EarliestStart(150, 10, 30); got != 150 {
		t.Errorf("after=150 → %d, want 150", got)
	}
	// Nodes committed for ever push a request that needs them out for ever.
	tl.Add(300, Infinity, 80)
	if got := tl.EarliestStart(0, 500, 30); got != Infinity {
		t.Errorf("blocked for ever → %d, want Infinity", got)
	}
}

func TestTimelineEarliestStartWindowStraddle(t *testing.T) {
	// A long job must not start in a gap too short for it.
	tl := NewTimeline(10)
	tl.Add(100, 100, 10) // busy [100,200)
	// 10-node job of 50s at t=0 would end at 50 — fits before the busy window.
	if got := tl.EarliestStart(0, 50, 10); got != 0 {
		t.Errorf("short pre-gap start = %d, want 0", got)
	}
	// 150s job cannot fit before (would straddle into [100,200)) → 200.
	if got := tl.EarliestStart(0, 150, 10); got != 200 {
		t.Errorf("straddling job start = %d, want 200", got)
	}
}

func TestTimelineTruncateFreesTail(t *testing.T) {
	tl := NewTimeline(10)
	tl.Add(0, 1000, 10)
	// Early completion at t=300 frees [300, 1000).
	tl.Add(300, 700, -10)
	if tl.usedAt(299) != 10 || tl.usedAt(300) != 0 {
		t.Fatalf("truncate boundary wrong: %d / %d", tl.usedAt(299), tl.usedAt(300))
	}
	if got := tl.EarliestStart(0, 100, 10); got != 300 {
		t.Fatalf("earliest after truncate = %d, want 300", got)
	}
}

func TestTimelineDropBefore(t *testing.T) {
	tl := NewTimeline(10)
	tl.Add(0, 100, 5)
	tl.Add(50, 100, 5)
	tl.DropBefore(100)
	if !slices.Equal(tl.at, []sim.Time{100, 150}) {
		t.Fatalf("breakpoints after the drop = %v, want [100 150] (only [50,150) reaches past 100)", tl.at)
	}
	if tl.usedAt(100) != 5 || tl.usedAt(149) != 5 || tl.usedAt(150) != 0 {
		t.Fatalf("usage from now on moved: %d %d %d", tl.usedAt(100), tl.usedAt(149), tl.usedAt(150))
	}
	if got := tl.EarliestStart(100, 100, 10); got != 150 {
		t.Fatalf("earliest after the drop = %d, want 150", got)
	}
}

// Property: commitments placed where EarliestStart says never drive usage
// above capacity, and EarliestStart's answer is never before `after`.
func TestTimelineInvariantsProperty(t *testing.T) {
	type req struct {
		Start uint16
		Dur   uint8
		Nodes uint8
	}
	f := func(reqs []req) bool {
		tl := NewTimeline(64)
		for _, r := range reqs {
			nodes := int(r.Nodes)%64 + 1
			dur := sim.Duration(r.Dur) + 1
			start := tl.EarliestStart(sim.Time(r.Start), dur, nodes)
			if start == Infinity || start < sim.Time(r.Start) {
				return false // always satisfiable on a draining timeline
			}
			if !tl.Fits(start, dur, nodes) {
				return false
			}
			tl.Add(start, dur, nodes)
		}
		for _, u := range tl.used {
			if u < 0 || u > tl.total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineMatchesMapOracleProperty drives the step function and the
// map-of-commitments oracle with the same random programme of commits,
// tail truncations (what the co-reservation baseline does at a job's early
// end) and drops of the past, and requires usage, Fits and EarliestStart to
// agree at every probed instant at or after the last drop. Requests include
// full-machine, zero and negative sizes, and windows that saturate at
// Infinity.
func TestTimelineMatchesMapOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const total = 64
	nodesOf := func() int {
		switch rng.Intn(8) {
		case 0:
			return total
		case 1:
			return -rng.Intn(3) // zero or negative
		case 2:
			return total + 1
		}
		return 1 + rng.Intn(total)
	}
	durOf := func() sim.Duration {
		switch rng.Intn(10) {
		case 0:
			return -sim.Duration(rng.Intn(2)) // zero or negative
		case 1:
			return Infinity - sim.Duration(rng.Intn(1000)) // saturates
		}
		return 1 + sim.Duration(rng.Intn(3000))
	}
	saturated := 0
	for seq := 0; seq < 400; seq++ {
		ref, tl := newMapTimeline(total), NewTimeline(total)
		now := sim.Time(rng.Intn(1000))
		commit := func(start sim.Time, dur sim.Duration, nodes int) {
			if _, ok := ref.Commit(start, dur, nodes); ok {
				tl.Add(start, dur, nodes)
				if saturate(start, dur) == Infinity {
					saturated++
				}
			}
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(5) {
			case 0, 1: // place a request where both say it first fits
				after, dur, nodes := now+sim.Time(rng.Intn(2000)), durOf(), nodesOf()
				want, got := ref.EarliestStart(after, dur, nodes), tl.EarliestStart(after, dur, nodes)
				if got != want {
					t.Fatalf("seq %d op %d: EarliestStart(%d, %d, %d) = %d, oracle %d", seq, op, after, dur, nodes, got, want)
				}
				if got != Infinity {
					commit(got, dur, nodes)
				}
			case 2: // commit at an arbitrary instant if it fits
				at, dur, nodes := now+sim.Time(rng.Intn(3000)), durOf(), nodesOf()
				if got, want := tl.Fits(at, dur, nodes), ref.CanCommit(at, dur, nodes); got != want {
					t.Fatalf("seq %d op %d: Fits(%d, %d, %d) = %v, oracle %v", seq, op, at, dur, nodes, got, want)
				}
				commit(at, dur, nodes)
			case 3: // an early end frees a commitment's tail
				ids := make([]int64, 0, len(ref.commits))
				for id := range ref.commits {
					ids = append(ids, id)
				}
				if len(ids) == 0 {
					continue
				}
				sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
				id := ids[rng.Intn(len(ids))]
				c, x := ref.commits[id], now+sim.Time(rng.Intn(3000))
				ref.TruncateAt(id, x)
				from := max(x, c.start)
				tl.Add(from, c.end-from, -c.nodes)
			case 4: // time passes
				now += sim.Time(rng.Intn(800))
				ref.GC(now)
				tl.DropBefore(now)
			}

			probes := []sim.Time{now, now + sim.Time(rng.Intn(5000)), Infinity - 1, Infinity}
			for _, c := range ref.commits {
				probes = append(probes, c.start-1, c.start, c.end-1, c.end)
			}
			for _, x := range probes {
				if x < now {
					continue
				}
				if got, want := tl.usedAt(x), ref.UsedAt(x); got != want {
					t.Fatalf("seq %d op %d: used at %d = %d, oracle %d", seq, op, x, got, want)
				}
			}
			at, dur, nodes := now+sim.Time(rng.Intn(4000)), durOf(), nodesOf()
			if got, want := tl.Fits(at, dur, nodes), ref.CanCommit(at, dur, nodes); got != want {
				t.Fatalf("seq %d op %d: probe Fits(%d, %d, %d) = %v, oracle %v", seq, op, at, dur, nodes, got, want)
			}
			if got, want := tl.EarliestStart(at, dur, nodes), ref.EarliestStart(at, dur, nodes); got != want {
				t.Fatalf("seq %d op %d: probe EarliestStart(%d, %d, %d) = %d, oracle %d", seq, op, at, dur, nodes, got, want)
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no committed window saturated at Infinity; the programme lost a case")
	}
}

// TestPlanConservativeMatchesMapOracleProperty requires the planner seeded
// on the step function to return the plan — jobs, order and HoldSafe — the
// map-of-commitments planner returns, over random queues, release lists,
// charge and estimate functions. Cases include busy nodes no release lists
// (held), release lists that claim more than is busy, and snapshots that
// fall back to the priority-order prefix.
func TestPlanConservativeMatchesMapOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var held, fallback int
	for c := 0; c < 3000; c++ {
		total := 16 << rng.Intn(5) // 16 … 256
		free := rng.Intn(total+3) - 2
		var charge ChargeFunc // nil = plain
		if rng.Intn(2) == 0 {
			charge = cluster.NewPartitioned("p", total, 1<<rng.Intn(4)).ChargeFor
		}
		var estimate EstimateFunc // nil = walltime
		if rng.Intn(2) == 0 {
			estimate = func(j *job.Job) sim.Duration { return j.Walltime / 3 }
		}
		now := sim.Time(rng.Intn(10000))

		queue := make([]*job.Job, rng.Intn(24))
		for i := range queue {
			nodes := 1 + rng.Intn(total+total/8)
			if rng.Intn(3) == 0 {
				nodes = 1 + rng.Intn(max(free, 1))
			}
			queue[i] = mkjob(job.ID(i+1), nodes, sim.Duration(1+rng.Intn(5000)))
		}
		releases := make([]Release, rng.Intn(8))
		busy, sum := total-free, 0
		for i := range releases {
			nodes := 1 + rng.Intn(max(busy, 1))
			switch rng.Intn(8) {
			case 0:
				nodes = -rng.Intn(total / 4) // zero or negative
			case 1, 2:
				// overclaim: leave nodes as drawn
			default:
				nodes = min(nodes, max(busy-sum, 0))
			}
			sum += nodes
			endBy := now - 50 + sim.Time(rng.Intn(6000))
			if rng.Intn(20) == 0 {
				endBy = Infinity
			}
			releases[i] = Release{Nodes: nodes, EndBy: endBy}
		}
		SortReleases(releases)
		bounded := 0
		for _, r := range releases {
			bounded += max(r.Nodes, 0)
		}
		h := max(busy-sum, 0)
		if h+bounded > total {
			fallback++
		} else if h > 0 {
			held++
		}

		want := planConservativeOracle(queue, total, free, charge, releases, now, estimate)
		got := PlanConservativeInto(nil, queue, total, free, charge, releases, now, estimate)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (total %d, free %d, now %d, releases %v): plan %v, oracle %v",
				c, total, free, now, releases, got, want)
		}
	}
	if held == 0 || fallback == 0 {
		t.Fatalf("coverage lost: %d cases with held nodes, %d fallbacks", held, fallback)
	}
}
