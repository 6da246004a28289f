package experiments

import (
	"reflect"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/workload"
)

// TestSnapshotIsolationAcrossCells is the copy-on-write differential test
// for the shared base-trace architecture: after a cell has fully simulated
// (mutating job states, counters, and timestamps), re-materializing from
// the same snapshot must reproduce the pristine trace exactly — byte-equal
// to what workload.Clone of the original would give. Any leak of one
// cell's mutations into the shared snapshot shows up as a field diff here.
func TestSnapshotIsolationAcrossCells(t *testing.T) {
	cfg := testConfig().normalized()
	intr, eur, err := loadSweepTraces(cfg, cfg.Seed, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a deep clone taken before any snapshot or simulation.
	wantIntr := workload.Clone(intr)
	wantEur := workload.Clone(eur)

	pair, _ := freezePair(intr, eur, nil)

	// Run the most mutation-heavy cell (hold/hold) twice from the same
	// snapshot, each on its own buffers, as parallel workers would.
	combo := Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold}
	for run := 0; run < 2; run++ {
		var buf cellBuffers
		ci, ce := pair.materialize(&buf)
		if _, err := simulatePair(cfg, cfg.setup(combo), ci, ce); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}

	checkPristine := func(name string, got, want []*job.Job) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d jobs, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(*got[i], *want[i]) {
				t.Fatalf("%s: job %d mutated through the shared snapshot:\n got %+v\nwant %+v",
					name, i, *got[i], *want[i])
			}
		}
	}
	checkPristine("intrepid", pair.intr.Materialize(), wantIntr)
	checkPristine("eureka", pair.eur.Materialize(), wantEur)
}

// TestLoadSweepSharedTraceParallelByteIdentity pins the end-to-end
// guarantee for the snapshot-sharing path: the full load sweep renders
// byte-identical tables and sample vectors at parallelism 1 and 8, with
// multiple reps exercising snapshot reuse across worker-recycled arenas.
func TestLoadSweepSharedTraceParallelByteIdentity(t *testing.T) {
	cfg := testConfig()
	cfg.Reps = 2

	var want string
	for _, workers := range []int{1, 8} {
		c := cfg
		c.Parallelism = workers
		s, err := RunLoadSweep(c)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		got := renderLoadSweep(s)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallelism %d tables differ from serial run", workers)
		}
	}
}
