package experiments

import (
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/resmgr"
)

// runHoldYieldCell runs one small hold/yield cell of the load sweep (Eureka
// at 0.75) on the named scheduling core.
func runHoldYieldCell(t *testing.T, core string) *coupled.Sim {
	t.Helper()
	cfg := DefaultConfig(1, 0.05).normalized()
	cfg.SchedCore = core
	intr, eur, err := loadSweepTraces(cfg, cfg.Seed, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	setup := cfg.setup(Combo{Intrepid: cosched.Hold, Eureka: cosched.Yield})
	s, err := coupled.New(coupled.Options{Domains: pairDomains(cfg, setup, intr, eur)})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); res.StuckJobs != 0 {
		t.Fatalf("%d stuck jobs", res.StuckJobs)
	}
	return s
}

// TestIterationStatsSumOnLoadSweepCell runs one small hold/yield cell of
// the load sweep and checks the iteration-outcome histogram on both
// domains: every iteration lands in exactly one class, and the cell is busy
// enough to populate the classes the sweep spends its time in.
func TestIterationStatsSumOnLoadSweepCell(t *testing.T) {
	s := runHoldYieldCell(t, "")
	var all [resmgr.NumIterOutcomes]uint64
	for _, name := range []string{DomIntrepid, DomEureka} {
		m := s.Manager(name)
		st := m.IterationStats()
		var sum uint64
		for o, n := range st {
			sum += n
			all[o] += n
		}
		if sum != m.Iterations() {
			t.Errorf("%s: outcomes %v sum to %d, Iterations() = %d", name, st, sum, m.Iterations())
		}
		if st[resmgr.IterElided] != m.Skips() {
			t.Errorf("%s: %d elided, Skips() = %d", name, st[resmgr.IterElided], m.Skips())
		}
	}
	for o, n := range all {
		t.Logf("%-16s %d", resmgr.IterOutcome(o), n)
		if n == 0 {
			t.Errorf("no iteration ended %s; the cell is too idle to exercise the histogram", resmgr.IterOutcome(o))
		}
	}
}

// TestIterationStatsMatchReferenceCore: the incremental core returns early
// from iterations the reference core plans in full — nothing queued fits
// (elided), or nothing eligible fits once this instant's yielders are set
// aside (planned-nothing) — and orders only the jobs a plan can contain. None
// of it may change what any iteration does: with the elided ones folded into
// planned-nothing, both cores' histograms are equal on both domains.
func TestIterationStatsMatchReferenceCore(t *testing.T) {
	inc, ref := runHoldYieldCell(t, "incremental"), runHoldYieldCell(t, "reference")
	for _, name := range []string{DomIntrepid, DomEureka} {
		got, want := inc.Manager(name).IterationStats(), ref.Manager(name).IterationStats()
		if want[resmgr.IterElided] != 0 {
			t.Fatalf("%s: reference core elided %d iterations", name, want[resmgr.IterElided])
		}
		got[resmgr.IterPlannedNothing] += got[resmgr.IterElided]
		got[resmgr.IterElided] = 0
		if got != want {
			t.Errorf("%s: incremental core %v (elided folded), reference core %v", name, got, want)
		}
	}
}
