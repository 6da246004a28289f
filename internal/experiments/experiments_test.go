package experiments

import (
	"strings"
	"testing"

	"cosched/internal/cosched"
)

// testConfig returns a scaled-down configuration that keeps the sweeps
// fast while preserving the qualitative shapes the assertions check.
func testConfig() Config {
	cfg := DefaultConfig(7, 0.08)
	cfg.Reps = 1
	return cfg
}

func TestCombosLabels(t *testing.T) {
	want := []string{"HH", "HY", "YH", "YY"}
	for i, c := range Combos {
		if c.Label() != want[i] {
			t.Fatalf("combo %d label = %s, want %s", i, c.Label(), want[i])
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	var zero Config
	n := zero.normalized()
	if n.JobFactor != 1 || n.Reps != 1 || n.ReleaseInterval == 0 ||
		n.IntrepidUtil == 0 || n.MaxHeldFraction != 1.0 {
		t.Fatalf("normalized zero config = %+v", n)
	}
}

func TestTraceBuilders(t *testing.T) {
	cfg := testConfig()
	intr, err := intrepidTrace(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(intr) < 500 {
		t.Fatalf("intrepid trace too small: %d", len(intr))
	}
	for _, util := range []float64{0.25, 0.75} {
		eur, err := eurekaTraceAtUtil(cfg, 2, util)
		if err != nil {
			t.Fatal(err)
		}
		if len(eur) == 0 {
			t.Fatalf("empty eureka trace at %g", util)
		}
	}
	eurP, err := eurekaProportionTrace(cfg, 3, len(intr))
	if err != nil {
		t.Fatal(err)
	}
	if len(eurP) != len(intr) {
		t.Fatalf("proportion trace has %d jobs, want %d (same as intrepid)", len(eurP), len(intr))
	}
}

func TestLoadSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulations are not short")
	}
	sweep, err := RunLoadSweep(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every cell simulated, no stuck jobs, no co-start violations.
	if len(sweep.Cells) != len(LoadSweepUtils)*len(Combos) {
		t.Fatalf("cells = %d", len(sweep.Cells))
	}
	for _, c := range sweep.Cells {
		if c.Stuck != 0 {
			t.Errorf("cell %s/%.2f: %d stuck jobs", c.Combo.Label(), c.X, c.Stuck)
		}
		if c.CoStartViol != 0 {
			t.Errorf("cell %s/%.2f: %d co-start violations", c.Combo.Label(), c.X, c.CoStartViol)
		}
		if c.PairedJobs == 0 {
			t.Errorf("cell %s/%.2f: no paired jobs", c.Combo.Label(), c.X)
		}
	}
	// Yield never loses service units; hold on the respective side does.
	for _, util := range sweep.Utils {
		yy := sweep.Cell(util, Combo{Intrepid: cosched.Yield, Eureka: cosched.Yield})
		if yy.IntrepidLossNH != 0 || yy.EurekaLossNH != 0 {
			t.Errorf("YY at %.2f lost node-hours: %g / %g", util, yy.IntrepidLossNH, yy.EurekaLossNH)
		}
		hh := sweep.Cell(util, Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
		if hh.IntrepidLossNH <= 0 {
			t.Errorf("HH at %.2f: no Intrepid loss", util)
		}
		yh := sweep.Cell(util, Combo{Intrepid: cosched.Yield, Eureka: cosched.Hold})
		if yh.IntrepidLossNH != 0 {
			t.Errorf("YH at %.2f: Intrepid (yield side) lost %g node-hours", util, yh.IntrepidLossNH)
		}
	}
	// Tables render with a row per (util, combo).
	a, b := sweep.Fig3Table()
	if len(a.Rows) != 12 || len(b.Rows) != 12 {
		t.Fatalf("fig3 rows: %d / %d", len(a.Rows), len(b.Rows))
	}
	for _, table := range []string{a.Render(), b.Render()} {
		for _, combo := range []string{"HH", "HY", "YH", "YY"} {
			if !strings.Contains(table, combo) {
				t.Fatalf("fig3 table missing %s:\n%s", combo, table)
			}
		}
	}
	a, b = sweep.Fig4Table()
	if len(a.Rows) != 12 || len(b.Rows) != 12 {
		t.Fatal("fig4 rows")
	}
	a, b = sweep.Fig5Table()
	if len(a.Rows) != 6 || len(b.Rows) != 6 {
		t.Fatal("fig5 rows")
	}
	a, b = sweep.Fig6Table()
	if len(a.Rows) != 6 || len(b.Rows) != 6 {
		t.Fatal("fig6 rows")
	}
}

func TestProportionSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulations are not short")
	}
	sweep, err := RunProportionSweep(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != len(ProportionSweepPoints)*len(Combos) {
		t.Fatalf("cells = %d", len(sweep.Cells))
	}
	for _, c := range sweep.Cells {
		if c.Stuck != 0 || c.CoStartViol != 0 {
			t.Errorf("cell %s/%.3f: stuck=%d viol=%d", c.Combo.Label(), c.X, c.Stuck, c.CoStartViol)
		}
	}
	// Loss grows with the pair proportion on the hold side (compare the
	// extremes; middle points may wobble at test scale).
	lossLow := sweep.Cell(0.025, Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold}).IntrepidLossNH
	lossHigh := sweep.Cell(0.33, Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold}).IntrepidLossNH
	if lossHigh <= lossLow {
		t.Errorf("Intrepid HH loss did not grow with proportion: %.0f → %.0f", lossLow, lossHigh)
	}
	a, b := sweep.Fig7Table()
	if len(a.Rows) != 20 || len(b.Rows) != 20 {
		t.Fatal("fig7 rows")
	}
	a, b = sweep.Fig9Table()
	if len(a.Rows) != 10 || len(b.Rows) != 10 {
		t.Fatal("fig9 rows")
	}
	a, b = sweep.Fig10Table()
	if len(a.Rows) != 10 || len(b.Rows) != 10 {
		t.Fatal("fig10 rows")
	}
	if !strings.Contains(a.Render(), "2.5%") {
		t.Fatal("fig10 missing 2.5% label")
	}
}

func TestValidationPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("validation grid is not short")
	}
	v, err := RunValidation(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Passed() {
		t.Fatalf("capability validation failed:\n%s", v.Table().Render())
	}
	if !v.DeadlockWithoutRelease {
		t.Fatal("Figure 2 scenario did not deadlock without the release enhancement")
	}
	if v.DeadlockWithRelease {
		t.Fatal("Figure 2 scenario deadlocked despite the release enhancement")
	}
	if len(v.Cases) != 3*2*4 {
		t.Fatalf("validation cases = %d, want 24", len(v.Cases))
	}
	if !strings.Contains(v.Table().Render(), "deadlocked=true") {
		t.Fatal("table caption missing deadlock result")
	}
}

// TestRepsDoNotApplyToValidateAndNWay pins the documented behaviour of
// -reps: the validation grid and the N-way sweep run every cell once, so
// their tables are the same at any Reps.
func TestRepsDoNotApplyToValidateAndNWay(t *testing.T) {
	var want [2]string
	for _, reps := range []int{1, 3} {
		cfg := DefaultConfig(3, 0.02)
		cfg.Reps = reps
		v, err := RunValidation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := RunNWaySweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{v.Table().Render(), n.Table().Render()}
		if reps == 1 {
			want = got
		} else if got != want {
			t.Errorf("tables at Reps %d differ from Reps 1:\n%s\n%s\nwant:\n%s\n%s", reps, got[0], got[1], want[0], want[1])
		}
	}
}

func TestRepsAveraging(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulations are not short")
	}
	cfg := testConfig()
	cfg.JobFactor = 0.03
	cfg.Reps = 2
	sweep, err := RunLoadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Averaged cells must still carry finite, plausible values.
	for _, c := range sweep.Cells {
		if c.IntrepidWait < 0 || c.EurekaWait < 0 {
			t.Fatalf("negative averaged wait in %+v", c)
		}
	}
}

func TestReservationComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison simulations are not short")
	}
	c, err := RunReservationComparison(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(c.Rows))
	}
	for _, name := range []string{"baseline", "cosched(HY)", "cosched(YY)", "metascheduler", "co-reservation"} {
		if c.Row(name) == nil {
			t.Fatalf("missing row %q", name)
		}
	}
	// Coordinated systems never violate co-start.
	for _, name := range []string{"cosched(HY)", "cosched(YY)", "metascheduler", "co-reservation"} {
		if r := c.Row(name); r.CoStartViol != 0 {
			t.Errorf("%s: %d co-start violations", name, r.CoStartViol)
		}
	}
	// The uncoordinated baseline must show violations (that is the point
	// of coordinating at all).
	if c.Row("baseline").CoStartViol == 0 {
		t.Error("uncoordinated baseline co-started every pair by accident")
	}
	// The paper's §III argument: co-reservation fragments the machines,
	// so regular waits exceed coscheduling's.
	res := c.Row("co-reservation")
	hy := c.Row("cosched(HY)")
	if res.IntrepidWait <= hy.IntrepidWait {
		t.Errorf("co-reservation Intrepid wait %.1f ≤ coscheduling %.1f — fragmentation argument not visible",
			res.IntrepidWait, hy.IntrepidWait)
	}
	if !strings.Contains(c.Table().Render(), "co-reservation") {
		t.Fatal("table missing co-reservation row")
	}
}

func TestNWaySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulations are not short")
	}
	s, err := RunNWaySweep(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != len(NWayWidths)*2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	for _, r := range s.Rows {
		if r.GroupStartSpread != 0 {
			t.Errorf("width %d/%s: group start spread %g, want 0", r.Width, r.Scheme, r.GroupStartSpread)
		}
		if r.CoStartViolations != 0 || r.Stuck != 0 {
			t.Errorf("width %d/%s: viol=%d stuck=%d", r.Width, r.Scheme, r.CoStartViolations, r.Stuck)
		}
		if r.Scheme == cosched.Yield && r.LossNH != 0 {
			t.Errorf("width %d yield lost %g node-hours", r.Width, r.LossNH)
		}
	}
	// Wider groups are harder to align: sync at width 4 ≥ sync at width 2
	// for the same scheme.
	var w2, w4 float64
	for _, r := range s.Rows {
		if r.Scheme == cosched.Hold && r.Width == 2 {
			w2 = r.GroupSync
		}
		if r.Scheme == cosched.Hold && r.Width == 4 {
			w4 = r.GroupSync
		}
	}
	if w4 < w2 {
		t.Errorf("group sync shrank with width: w2=%.1f w4=%.1f", w2, w4)
	}
	if !strings.Contains(s.Table().Render(), "width") {
		t.Fatal("table render")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation simulations are not short")
	}
	cfg := testConfig()
	cfg.JobFactor = 0.04
	a, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range []string{"release_interval", "max_held_fraction", "yield_escalation", "backfill", "estimator"} {
		rows := a.Group(group)
		if len(rows) < 2 {
			t.Fatalf("group %s has %d rows", group, len(rows))
		}
	}
	for _, r := range a.Rows {
		if r.Stuck != 0 || r.CoStartViol != 0 {
			t.Errorf("%s/%s: stuck=%d viol=%d", r.Group, r.Variant, r.Stuck, r.CoStartViol)
		}
	}
	// Yield variants hold nothing.
	for _, r := range a.Group("yield_escalation") {
		if r.Variant == "plain_yield" && r.LossNH != 0 {
			t.Errorf("plain yield lost %g node-hours", r.LossNH)
		}
	}
	if !strings.Contains(a.Table().Render(), "release_interval") {
		t.Fatal("table render")
	}
}

func TestFigureCharts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulations are not short")
	}
	cfg := testConfig()
	cfg.JobFactor = 0.04
	load, err := RunLoadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	charts := load.Charts()
	if len(charts) != 8 {
		t.Fatalf("load charts = %d, want 8", len(charts))
	}
	for _, nc := range charts {
		svg, err := nc.Chart.SVG()
		if err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		if !strings.Contains(svg, "</svg>") {
			t.Fatalf("%s: malformed svg", nc.Name)
		}
	}
	prop, err := RunProportionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prop.Charts()); got != 8 {
		t.Fatalf("prop charts = %d, want 8", got)
	}
	for _, nc := range prop.Charts() {
		if _, err := nc.Chart.SVG(); err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
	}
	nway, err := RunNWaySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nway.Chart().Chart.SVG(); err != nil {
		t.Fatal(err)
	}
}
