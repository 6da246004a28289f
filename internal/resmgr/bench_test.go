package resmgr_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/schedbench"
	"cosched/internal/sim"
)

// BenchmarkIterate measures one scheduling iteration at the blocked steady
// state (every queued job too large to start or backfill) for each core and
// queue depth. The incremental core's no-fit test elides ordering and
// planning entirely here, and its steady-state path must not allocate.
func BenchmarkIterate(b *testing.B) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		for _, queue := range schedbench.QueueSizes {
			b.Run(fmt.Sprintf("%s/queue%d", core, queue), func(b *testing.B) {
				eng, m, _, _ := schedbench.Steady(core, queue)
				now := eng.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Iterate(now)
				}
			})
		}
	}
}

// BenchmarkIterateChurn interleaves a cancel+submit with every iteration, so
// each iteration faces a changed queue: the queue's remove and append and
// the smallest-charge bound's upkeep rather than the pure elided path.
func BenchmarkIterateChurn(b *testing.B) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		for _, queue := range schedbench.QueueSizes {
			b.Run(fmt.Sprintf("%s/queue%d", core, queue), func(b *testing.B) {
				eng, m, blocked, nextID := schedbench.Steady(core, queue)
				now := eng.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(blocked)
					blocked[k], nextID = schedbench.Churn(m, blocked[k], nextID)
					m.Iterate(now)
				}
			})
		}
	}
}

// registrySizes are the job-table sizes the ID-lookup benchmarks run at: a
// small daemon, a mid-size trace, and one mega_cell domain.
var registrySizes = []int{1_000, 100_000, 500_000}

// registry returns n expected jobs numbered 1..n, as workload.Generate
// numbers a trace, and a fresh manager for them.
func registry(n int) ([]*job.Job, func() *resmgr.Manager) {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = job.New(job.ID(i+1), 1, 0, sim.Hour, sim.Hour)
	}
	return jobs, func() *resmgr.Manager {
		return resmgr.New(sim.NewEngine(), resmgr.Options{Pool: cluster.New("bench", 64)})
	}
}

// BenchmarkProbeMate measures the callee's side of one probe_mate — the
// lookup Algorithm 1 makes in the mate's domain for every Run_Job — against
// a table of n registered jobs, the probed IDs drawn at random from seed 1
// so that consecutive probes do not share a cache line.
func BenchmarkProbeMate(b *testing.B) {
	for _, n := range registrySizes {
		b.Run(fmt.Sprintf("jobs%d", n), func(b *testing.B) {
			jobs, fresh := registry(n)
			m := fresh()
			for _, j := range jobs {
				if err := m.Expect(j); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			ids := make([]job.ID, 1<<16)
			for i := range ids {
				ids[i] = job.ID(rng.Intn(n) + 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p, _ := m.ProbeMate(ids[i&(len(ids)-1)]); !p.Known {
					b.Fatal("registered job unknown")
				}
			}
		})
	}
}

// BenchmarkExpect measures one registration — the duplicate check and the
// insert — as SubmitTrace makes it for each job of a trace: jobs 1..n in
// ID order into a manager that starts empty, a fresh one every n
// operations, so each op is one job of an n-job trace's build.
func BenchmarkExpect(b *testing.B) {
	for _, n := range registrySizes {
		b.Run(fmt.Sprintf("jobs%d", n), func(b *testing.B) {
			jobs, fresh := registry(n)
			var m *resmgr.Manager
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				if k == 0 {
					b.StopTimer()
					m = fresh()
					b.StartTimer()
				}
				if err := m.Expect(jobs[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSteadyScenarioSettles pins the shared benchmark scenario's invariants
// so its numbers stay comparable across changes:
// the blocked queue never drains, the incremental core elides every
// iteration over it (also across a churn step, which leaves nothing that
// fits), and the reference core plans every one.
func TestSteadyScenarioSettles(t *testing.T) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		eng, m, blocked, nextID := schedbench.Steady(core, 100)
		if got := m.Counts().Queued; got != 100 {
			t.Fatalf("%v: queue length = %d, want 100", core, got)
		}
		if blocked[0].ID == blocked[1].ID {
			t.Fatalf("scenario job IDs collide")
		}
		iters, skips := m.Iterations(), m.Skips()
		for i := 0; i < 3; i++ {
			m.Iterate(eng.Now())
		}
		blocked[0], _ = schedbench.Churn(m, blocked[0], nextID)
		m.Iterate(eng.Now())
		if got := m.Counts().Queued; got != 100 {
			t.Fatalf("%v: queue drained to %d after extra iterations", core, got)
		}
		elided := m.Skips() - skips
		if core == resmgr.CoreIncremental && elided != m.Iterations()-iters {
			t.Fatalf("incremental: %d of %d blocked iterations elided, want all", elided, m.Iterations()-iters)
		}
		if core == resmgr.CoreReference && m.Skips() != 0 {
			t.Fatalf("reference: %d iterations elided on the core that plans every one", m.Skips())
		}
	}
}
