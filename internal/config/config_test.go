package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/trace"
	"cosched/internal/workload"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sim.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validConfig = `{
  "wire_protocol": false,
  "domains": [
    {"name": "intrepid", "nodes": 40960, "min_partition": 512, "backfilling": true,
     "cosched_enabled": true, "scheme": "hold", "release_minutes": 20,
     "synthetic": {"system": "intrepid", "jobs": 100, "seed": 1}},
    {"name": "eureka", "nodes": 100, "backfilling": true,
     "cosched_enabled": true, "scheme": "yield", "release_minutes": 20,
     "max_held_fraction": 0.5, "max_yields": 3, "yield_boost": true,
     "synthetic": {"system": "eureka", "jobs": 80, "util": 0.4, "seed": 2}}
  ],
  "pairs": [{"domain_a": "intrepid", "domain_b": "eureka", "window_seconds": 600}]
}`

func TestLoadAndBuild(t *testing.T) {
	path := writeConfig(t, validConfig)
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Domains) != 2 {
		t.Fatalf("domains = %d", len(opt.Domains))
	}
	d0 := opt.Domains[0]
	if d0.Name != "intrepid" || d0.MinPartition != 512 || !d0.Backfilling {
		t.Fatalf("domain 0 = %+v", d0)
	}
	if !d0.Cosched.Enabled || d0.Cosched.Scheme != cosched.Hold {
		t.Fatalf("domain 0 cosched = %+v", d0.Cosched)
	}
	if len(d0.Trace) != 100 {
		t.Fatalf("domain 0 trace = %d jobs", len(d0.Trace))
	}
	d1 := opt.Domains[1]
	if d1.Cosched.Scheme != cosched.Yield || d1.Cosched.MaxHeldFraction != 0.5 ||
		d1.Cosched.MaxYields != 3 || !d1.Cosched.YieldBoost {
		t.Fatalf("domain 1 cosched = %+v", d1.Cosched)
	}
	// The pairing must have linked at least one pair (10-minute window
	// over overlapping month-long traces).
	if workload.PairedFraction(d0.Trace) == 0 {
		t.Fatal("no pairs formed")
	}
	// The built options must actually simulate.
	s, err := coupled.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 || res.CoStartViolations != 0 {
		t.Fatalf("run: stuck=%d viol=%d", res.StuckJobs, res.CoStartViolations)
	}
}

func TestBuildFromTraceFile(t *testing.T) {
	jobs, err := workload.Generate(workload.EurekaSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "t.swf")
	if err := trace.SaveFile(tracePath, nil, jobs[:40]); err != nil {
		t.Fatal(err)
	}
	path := writeConfig(t, `{
	  "domains": [{"name": "d", "nodes": 100, "backfilling": true,
	    "cosched_enabled": false, "trace_file": "`+tracePath+`"}]
	}`)
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Domains[0].Trace) != 40 {
		t.Fatalf("trace = %d jobs", len(opt.Domains[0].Trace))
	}
}

func TestLoadRejectsBadConfigs(t *testing.T) {
	cases := map[string]string{
		"no domains":       `{"domains": []}`,
		"bad json":         `{`,
		"trailing data":    `{"domains": [{"name": "d", "nodes": 4}]} {}`,
		"trailing bracket": `{"domains": [{"name": "d", "nodes": 4}]} ]`,
		"trailing brace":   `{"domains": [{"name": "d", "nodes": 4}]} }`,
	}
	for name, body := range cases {
		if _, err := Load(writeConfig(t, body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A misspelt key is refused by name rather than dropped, which would
	// leave its setting at the default.
	_, err := Load(writeConfig(t, `{"domains": [{"name": "d", "nodes": 4, "max_held_fractoin": 0.5}]}`))
	if err == nil || !strings.Contains(err.Error(), `"max_held_fractoin"`) {
		t.Errorf("misspelt key: err = %v, want one naming the key", err)
	}
	if _, err := Load("/nonexistent.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildRejectsBadDomains(t *testing.T) {
	cases := map[string]string{
		"no workload": `{"domains": [{"name": "d", "nodes": 4}]}`,
		"no queue admits a job": `{"domains": [{"name": "d", "nodes": 4,
			"synthetic": {"system": "eureka", "jobs": 10}, "queues": [{"name": "tiny", "min_nodes": 1000}]}]}`,
		"both workloads": `{"domains": [{"name": "d", "nodes": 4,
			"trace_file": "x.swf", "synthetic": {"system": "eureka"}}]}`,
		"bad system": `{"domains": [{"name": "d", "nodes": 4,
			"synthetic": {"system": "cray"}}]}`,
		"bad scheme": `{"domains": [{"name": "d", "nodes": 4, "scheme": "grab",
			"synthetic": {"system": "eureka", "jobs": 10}}]}`,
		"bad policy": `{"domains": [{"name": "d", "nodes": 4, "policy": "bogus",
			"synthetic": {"system": "eureka", "jobs": 10}}]}`,
		"unknown pair domain": `{"domains": [{"name": "d", "nodes": 4,
			"synthetic": {"system": "eureka", "jobs": 10}}],
			"pairs": [{"domain_a": "d", "domain_b": "nope"}]}`,
	}
	for name, body := range cases {
		f, err := Load(writeConfig(t, body))
		if err != nil {
			continue // rejected at load; also fine
		}
		if _, err := f.Build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestBuildRejectsSelfPairing: a pairing whose two sides name one domain
// would mate each of its jobs to itself; Build refuses it, naming the
// domain.
func TestBuildRejectsSelfPairing(t *testing.T) {
	raw, err := os.ReadFile("../../configs/smallpair.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]any
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, pairing := range []map[string]any{
		{"domain_a": "viz", "domain_b": "viz"},
		{"domain_a": "viz", "domain_b": "viz", "proportion": 0.1, "seed": 9},
	} {
		cfg["pairs"] = []any{pairing}
		body, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Load(writeConfig(t, string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Build(); err == nil || !strings.Contains(err.Error(), `"viz"`) {
			t.Fatalf("pairing %v: Build error %v, want one naming \"viz\"", pairing, err)
		}
	}
}

// TestShippedConfigsBuildAndRun loads every sample under configs/ and runs
// it briefly — the shipped examples must never rot.
func TestShippedConfigsBuildAndRun(t *testing.T) {
	matches, err := filepath.Glob("../../configs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no shipped configs found")
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := f.Build()
			if err != nil {
				t.Fatal(err)
			}
			// Shrink the workloads so the test stays fast: drop all but
			// the first 120 jobs per domain.
			for i := range opt.Domains {
				if len(opt.Domains[i].Trace) > 120 {
					opt.Domains[i].Trace = opt.Domains[i].Trace[:120]
				}
			}
			s, err := coupled.New(opt)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			if res.CoStartViolations != 0 {
				t.Fatalf("%s: %d co-start violations", path, res.CoStartViolations)
			}
		})
	}
}
