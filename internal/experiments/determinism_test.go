package experiments

import (
	"fmt"
	"testing"
)

// fingerprint renders every baseline and cell metric of a sweep in %x so
// run-to-run comparisons are exact, not rounded.
func fingerprint(s *Sweep) []string {
	var out []string
	for _, x := range s.Points {
		b := s.Baselines[x]
		out = append(out, fmt.Sprintf("base %v iw=%x ew=%x isd=%x esd=%x iu=%x eu=%x frac=%x",
			x, b.IntrepidWait, b.EurekaWait, b.IntrepidSlowdown, b.EurekaSlowdown,
			b.IntrepidUtil, b.EurekaUtil, s.PairedFraction[x]))
		for _, combo := range Combos {
			c := s.Cell(x, combo)
			out = append(out, fmt.Sprintf("cell %v %s iw=%x ew=%x isd=%x esd=%x isy=%x esy=%x ilnh=%x elnh=%x samples=%x/%x stuck=%d viol=%d paired=%d",
				x, combo.Label(), c.IntrepidWait, c.EurekaWait, c.IntrepidSlowdown, c.EurekaSlowdown,
				c.IntrepidSync, c.EurekaSync, c.IntrepidLossNH, c.EurekaLossNH,
				c.IntrepidWaitSamples, c.EurekaWaitSamples, c.Stuck, c.CoStartViol, c.PairedJobs))
		}
	}
	return out
}

// TestProportionSweepRunToRunDeterminism re-runs the proportion sweep in
// one process and requires bit-identical cells. Every repeat rebuilds all
// maps (fresh hash seeds), so any result that leaks map iteration order
// into the simulation — e.g. scheduling submissions by ranging over the
// domain map, which assigns the sequence numbers that break same-instant
// event ties — flips here within a round or two.
func TestProportionSweepRunToRunDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, JobFactor: 0.1, Reps: 1, Parallelism: 8}
	first, err := RunProportionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprint(first)
	for round := 0; round < 2; round++ {
		s, err := RunProportionSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(s)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("round %d line %d:\n  first %s\n  now   %s", round, i, ref[i], got[i])
			}
		}
		if t.Failed() {
			return
		}
	}
}
