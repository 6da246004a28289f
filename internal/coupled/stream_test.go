package coupled

import (
	"fmt"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

func renderResult(res *Result) string {
	return fmt.Sprintf("A=%+v\nB=%+v\nmakespan=%d total=%d done=%d stuck=%d viol=%d iters=%d",
		res.Reports["A"], res.Reports["B"], res.Makespan, res.TotalJobs,
		res.CompletedJobs, res.StuckJobs, res.CoStartViolations, res.Iterations)
}

// TestStreamedCoupledRunMatchesMaterialized is the system-level streaming
// acceptance test: a coupled paired run fed through TraceStream must be
// byte-identical — reports, makespan, iteration counts — to the same run
// with materialized traces, across window sizes.
func TestStreamedCoupledRunMatchesMaterialized(t *testing.T) {
	run := func(window int) string {
		a, b := smallTraces(23, 60, 0.3)
		var opt Options
		if window == 0 {
			opt = Options{Domains: []DomainConfig{
				{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
				{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
			}}
		} else {
			opt = Options{
				Domains: []DomainConfig{
					{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), TraceStream: workload.NewSliceIter(a), StreamWindow: window},
					{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield), TraceStream: workload.NewSliceIter(b), StreamWindow: window},
				},
				Horizon: 365 * sim.Day,
			}
		}
		s, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		return renderResult(s.Run())
	}
	want := run(0)
	for _, window := range []int{16, 128} {
		if got := run(window); got != want {
			t.Fatalf("window=%d: streamed coupled run differs:\n got: %s\nwant: %s", window, got, want)
		}
	}
}

func TestStreamRequiresExplicitHorizon(t *testing.T) {
	_, err := New(Options{Domains: []DomainConfig{
		{Name: "A", Nodes: 64, TraceStream: workload.NewSliceIter(nil)},
	}})
	if err == nil {
		t.Fatal("streaming without horizon accepted")
	}
}

func TestStreamAndTraceMutuallyExclusive(t *testing.T) {
	a, _ := smallTraces(7, 10, 0)
	_, err := New(Options{
		Domains: []DomainConfig{
			{Name: "A", Nodes: 64, Trace: a, TraceStream: workload.NewSliceIter(a)},
		},
		Horizon: 365 * sim.Day,
	})
	if err == nil {
		t.Fatal("Trace+TraceStream accepted")
	}
}
