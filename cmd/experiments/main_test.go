package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/chart"
	"cosched/internal/experiments"
)

// captureOutput runs f with os.Stdout and os.Stderr redirected to files
// and returns what each received.
func captureOutput(t *testing.T, f func()) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	var files [2]*os.File
	for i := range files {
		fh, err := os.Create(filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		files[i] = fh
	}
	saved := [2]*os.File{os.Stdout, os.Stderr}
	os.Stdout, os.Stderr = files[0], files[1]
	defer func() { os.Stdout, os.Stderr = saved[0], saved[1] }()
	f()
	var out [2]string
	for i, fh := range files {
		b, err := os.ReadFile(fh.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out[0], out[1]
}

// TestRunStdoutIsTheSameEveryRun pins that nothing run-dependent reaches
// stdout: the experiment's own output and the block's closing blank line
// do, while the wall-clock time and the paths of written charts go to
// stderr. Two runs of the same flags then print the same stdout bytes.
func TestRunStdoutIsTheSameEveryRun(t *testing.T) {
	svgDir := t.TempDir()
	stdout, stderr := captureOutput(t, func() {
		run("stub", func() error {
			fmt.Println("table")
			c := &chart.BarChart{Series: []string{"s"}, Groups: []chart.Group{{Label: "g", Values: []float64{1}}}}
			return writeCharts(svgDir, []experiments.NamedChart{{Name: "fig", Chart: c}})
		})
	})
	if want := "=== stub ===\ntable\n\n"; stdout != want {
		t.Errorf("stdout = %q, want %q", stdout, want)
	}
	for _, s := range []string{"(stub completed in ", "wrote " + filepath.Join(svgDir, "fig.svg")} {
		if !strings.Contains(stderr, s) {
			t.Errorf("stderr %q lacks %q", stderr, s)
		}
	}
}

// TestParseExperiments pins -exp validation: every name in the list must
// be known, and the error names each one that is not, so a typo beside a
// valid figure can no longer be silently dropped.
func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		want    []string // expected set; nil means an error is expected
		errHas  []string // substrings the error must contain
		errLack []string // substrings the error must not contain
	}{
		{name: "single", spec: "fig3", want: []string{"fig3"}},
		{name: "list with spaces", spec: "fig3, validate ,nway", want: []string{"fig3", "validate", "nway"}},
		{name: "all", spec: "all", want: []string{"all"}},
		{name: "one bad among good", spec: "fig3,typo,load", errHas: []string{`"typo"`}, errLack: []string{`"fig3"`, `"load"`}},
		{name: "every bad name listed", spec: "fig11,fig3,bench", errHas: []string{`"fig11"`, `"bench"`}},
		{name: "empty", spec: "", errHas: []string{`""`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseExperiments(tc.spec)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseExperiments(%q) = %v, want an error", tc.spec, got)
				}
				for _, s := range tc.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not name %s", err, s)
					}
				}
				for _, s := range tc.errLack {
					if strings.Contains(err.Error(), s) {
						t.Errorf("error %q names the valid experiment %s", err, s)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("parseExperiments(%q): %v", tc.spec, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parseExperiments(%q) = %v, want %v", tc.spec, got, tc.want)
			}
			for _, n := range tc.want {
				if !got[n] {
					t.Errorf("parseExperiments(%q) lacks %q", tc.spec, n)
				}
			}
		})
	}
}

// TestCheckSizes pins the refusal of sizes the library would silently
// repair: each bad value is an error naming its flag, and the defaults and
// ordinary values pass.
func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		factor float64
		reps   int
		par    int
		errHas string // "" means the sizes are accepted
	}{
		{name: "defaults", factor: 1, reps: 1},
		{name: "small factor many reps capped pool", factor: 0.01, reps: 10, par: 8},
		{name: "factor zero", factor: 0, reps: 1, errHas: "-factor 0"},
		{name: "factor negative", factor: -1, reps: 1, errHas: "-factor -1"},
		{name: "factor NaN", factor: math.NaN(), reps: 1, errHas: "-factor NaN"},
		{name: "factor infinite", factor: math.Inf(1), reps: 1, errHas: "-factor +Inf"},
		{name: "reps zero", factor: 1, reps: 0, errHas: "-reps 0"},
		{name: "reps negative", factor: 1, reps: -3, errHas: "-reps -3"},
		{name: "parallel negative", factor: 1, reps: 1, par: -2, errHas: "-parallel -2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSizes(tc.factor, tc.reps, tc.par)
			if tc.errHas == "" {
				if err != nil {
					t.Fatalf("checkSizes refused valid sizes: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("checkSizes = %v, want an error naming %q", err, tc.errHas)
			}
		})
	}
}
