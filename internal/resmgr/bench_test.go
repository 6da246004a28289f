package resmgr_test

import (
	"fmt"
	"testing"

	"cosched/internal/resmgr"
	"cosched/internal/schedbench"
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
// each iteration faces a changed queue: sorted insert/remove and the
// smallest-charge bound's upkeep rather than the pure elided path.
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

// TestSteadyScenarioSettles pins the shared benchmark scenario's invariants
// so its numbers stay comparable across changes:
// the blocked queue never drains, the incremental core elides every
// iteration over it (also across a churn step, which leaves nothing that
// fits), and the reference core plans every one.
func TestSteadyScenarioSettles(t *testing.T) {
	for _, core := range []resmgr.Core{resmgr.CoreReference, resmgr.CoreIncremental} {
		eng, m, blocked, nextID := schedbench.Steady(core, 100)
		if got := m.QueueLength(); got != 100 {
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
		if got := m.QueueLength(); got != 100 {
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
