package experiments

import "testing"

// TestSchedCoreDifferential is the issue's acceptance gate: the full load
// sweep must render byte-identical tables (including raw per-rep sample
// vectors, printed in hex so no float bit hides behind rounding) under the
// reference and incremental scheduler cores, at serial and parallel worker
// counts. Any divergence — ordering, no-fit elision, timeline maintenance —
// shows up here as a table diff. Audit additionally re-checks every
// lifecycle event of every cell against the scheduler invariants and the
// deadlock wait-for graph; a violation fails the sweep with an error.
func TestSchedCoreDifferential(t *testing.T) {
	cfg := testConfig()
	cfg.Audit = true
	var want string
	for _, core := range []string{"reference", "incremental"} {
		for _, workers := range []int{1, 8} {
			c := cfg
			c.SchedCore = core
			c.Parallelism = workers
			s, err := RunLoadSweep(c)
			if err != nil {
				t.Fatalf("core %s parallelism %d: %v", core, workers, err)
			}
			got := renderLoadSweep(s)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("core %s parallelism %d diverges from reference serial output", core, workers)
			}
		}
	}
}
