package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// renderLoadSweep flattens everything observable about a load sweep —
// paired fractions, every Figures 3–6 table, and the raw per-rep sample
// vectors printed with %x so no float bit can hide behind rounding —
// into one string for byte-level comparison.
func renderLoadSweep(s *Sweep) string {
	var b strings.Builder
	for _, util := range s.Utils {
		fmt.Fprintf(&b, "paired %.2f: %x\n", util, s.PairedFraction[util])
	}
	for _, util := range s.Utils {
		base := s.Baselines[util]
		fmt.Fprintf(&b, "base %.2f: %x %x %x %x %x %x\n", util,
			base.IntrepidWait, base.EurekaWait,
			base.IntrepidSlowdown, base.EurekaSlowdown,
			base.IntrepidUtil, base.EurekaUtil)
		for _, combo := range Combos {
			c := s.Cell(util, combo)
			fmt.Fprintf(&b, "cell %.2f %s: %x %x %x %x %d %d %d\n", util, combo.Label(),
				c.IntrepidWait, c.EurekaWait, c.IntrepidSync, c.EurekaLossNH,
				c.PairedJobs, c.Stuck, c.CoStartViol)
			for _, v := range c.IntrepidWaitSamples {
				fmt.Fprintf(&b, "  sample_i %x\n", v)
			}
			for _, v := range c.EurekaWaitSamples {
				fmt.Fprintf(&b, "  sample_e %x\n", v)
			}
		}
	}
	f3a, f3b := s.Fig3Table()
	f4a, f4b := s.Fig4Table()
	f5a, f5b := s.Fig5Table()
	f6a, f6b := s.Fig6Table()
	for _, t := range []interface{ Render() string }{f3a, f3b, f4a, f4b, f5a, f5b, f6a, f6b} {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLoadSweepParallelDeterminism is the regression test for the cell
// pool's core guarantee: RunLoadSweep must produce byte-identical tables
// and sample vectors at any worker count, because cells are aggregated by
// index (replaying the serial float-addition order), never by completion
// order.
func TestLoadSweepParallelDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Reps = 2 // exercise the rep-merge path, not just per-point fan-out

	var want string
	for _, workers := range []int{1, 2, 8} {
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
			t.Fatalf("parallelism %d output differs from serial:\nserial:\n%s\nparallel:\n%s",
				workers, want, got)
		}
	}
}
