package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"cosched/internal/metrics"
)

// goldenDigests are the SHA-256 digests of everything cmd/experiments can
// print or draw, at DefaultConfig(1, 0.05) with Reps 2, recorded at commit
// bf0d914 (PR 21) — the parent of the change that put all six experiments
// behind one grid runner. bench/golden.json pins Figures 3–10 at its own
// scale; this pins the validate, nway, ablations and reservation tables
// and every chart SVG as well, so a refactor of a runner or a renderer
// that moves one byte of any of them fails here by name. The ablations
// digest was re-recorded once since, when the max-yield escalation stopped
// letting a job that may not hold hold (its max_yields_3 row moved).
var goldenDigests = map[string]string{
	"validate":    "3ed601216b087e82882ea6d1575e999fe1e1676159b1a7a980edc37319b5c45e",
	"nway":        "fc3def998fec8885f3bd59ae0694aa679aef04eac39fef35de5ca25e58c20d4d",
	"ablations":   "0cb2affcd55ae134f10e03ca6a5ae849a7cf3bd37c3f2c147d1b6428ac3bf148",
	"reservation": "74c199381a79d462cb5e1add623f67c893bd4ca5ab1a2f3204af06007f5b4bf5",
	"load":        "df84f6cce14b1773975fffda2a24b00db5fa83c9662233a27bf8749f405662cf",
	"prop":        "bd6e925c9da85b5b75d3e64d10cd3658a797033830759dbd7656ea311f03f607",
}

// renderEverything runs all six experiments and returns one rendered blob
// per goldenDigests key: tables as printed, then each chart's SVG under its
// file stem.
func renderEverything(t *testing.T, cfg Config) map[string]string {
	t.Helper()
	out := map[string]string{}
	svgs := func(charts []NamedChart) string {
		var b strings.Builder
		for _, nc := range charts {
			svg, err := nc.Chart.SVG()
			if err != nil {
				t.Fatalf("chart %s: %v", nc.Name, err)
			}
			fmt.Fprintf(&b, "%s.svg\n%s\n", nc.Name, svg)
		}
		return b.String()
	}
	tables := func(pairs ...func() (a, b *metrics.Table)) string {
		var b strings.Builder
		for _, p := range pairs {
			x, y := p()
			b.WriteString(x.Render())
			b.WriteString(y.Render())
		}
		return b.String()
	}

	v, err := RunValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["validate"] = v.Table().Render()

	n, err := RunNWaySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["nway"] = n.Table().Render() + svgs([]NamedChart{n.Chart()})

	a, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["ablations"] = a.Table().Render()

	r, err := RunReservationComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["reservation"] = r.Table().Render()

	load, err := RunLoadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frac strings.Builder
	for _, util := range load.Utils {
		fmt.Fprintf(&frac, "paired fraction at eureka_util %.2f: %.1f%%\n", util, load.PairedFraction[util]*100)
	}
	out["load"] = frac.String() +
		tables(load.Fig3Table, load.Fig4Table, load.Fig5Table, load.Fig6Table) + svgs(load.Charts())

	prop, err := RunProportionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["prop"] = tables(prop.Fig7Table, prop.Fig8Table, prop.Fig9Table, prop.Fig10Table) + svgs(prop.Charts())
	return out
}

// TestGoldenTablesAndCharts compares every experiment's rendered output
// with the digests taken at the parent commit, serially and at 8 workers.
func TestGoldenTablesAndCharts(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig(1, 0.05)
		cfg.Reps = 2
		cfg.Parallelism = workers
		for name, blob := range renderEverything(t, cfg) {
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(blob))); got != goldenDigests[name] {
				t.Errorf("parallelism %d: %s digest %s, want %s (recorded at the parent commit)",
					workers, name, got, goldenDigests[name])
			}
		}
	}
}
