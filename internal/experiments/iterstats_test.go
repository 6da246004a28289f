package experiments

import (
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/resmgr"
)

// TestIterationStatsSumOnLoadSweepCell runs one small hold/yield cell of
// the load sweep and checks the iteration-outcome histogram on both
// domains: every iteration lands in exactly one class, and the cell is busy
// enough to populate the classes the sweep spends its time in.
func TestIterationStatsSumOnLoadSweepCell(t *testing.T) {
	cfg := DefaultConfig(1, 0.05).normalized()
	intr, eur, _, err := loadSweepTraces(cfg, cfg.Seed, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	intrCfg, eurCfg := cosched.DefaultConfig(cosched.Hold), cosched.DefaultConfig(cosched.Yield)
	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
		{Name: DomIntrepid, Nodes: IntrepidNodes, Backfilling: true, Cosched: intrCfg, Trace: intr},
		{Name: DomEureka, Nodes: EurekaNodes, Backfilling: true, Cosched: eurCfg, Trace: eur},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); res.StuckJobs != 0 {
		t.Fatalf("%d stuck jobs", res.StuckJobs)
	}
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
