package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

const (
	helperEnv = "COSIM_HELPER"
	smallPair = "../../configs/smallpair.json"
)

// TestMain doubles as the command: re-execed with COSIM_HELPER=1 the test
// binary runs main on its arguments, so the tests below drive the real
// flag parsing and the real stdout.
func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cosim runs the command and returns its stdout; it must exit 0.
func cosim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("cosim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// TestJSONOutputIsJSON: with -json, stdout is one JSON document whatever
// else was asked for (-timeseries used to print its notes ahead of it).
func TestJSONOutputIsJSON(t *testing.T) {
	series := filepath.Join(t.TempDir(), "series.csv")
	for _, args := range [][]string{
		{"-config", smallPair, "-json"},
		{"-config", smallPair, "-json", "-timeseries", series},
	} {
		var res struct{ TotalJobs, CompletedJobs int }
		out := cosim(t, args...)
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("cosim %v: stdout is not JSON: %v\n%s", args, err, out)
		}
		if res.TotalJobs != 500 || res.CompletedJobs != 500 {
			t.Fatalf("cosim %v: %d of %d jobs completed, want 500 of 500", args, res.CompletedJobs, res.TotalJobs)
		}
	}
	if st, err := os.Stat(series); err != nil || st.Size() == 0 {
		t.Fatalf("time series not written: %v", err)
	}
}

// TestWireProtocolPrintsTheDirectTables is the wire-equals-direct check at
// the command line: the same configuration with "wire_protocol": true
// prints the same report, all but the wall-clock time in its first line.
func TestWireProtocolPrintsTheDirectTables(t *testing.T) {
	raw, err := os.ReadFile(smallPair)
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]any
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg["wire_protocol"] = true
	wired, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wirePath := filepath.Join(t.TempDir(), "wire.json")
	if err := os.WriteFile(wirePath, wired, 0o644); err != nil {
		t.Fatal(err)
	}
	elapsed := regexp.MustCompile(`^(simulated \d+ jobs in )\S+`)
	direct := elapsed.ReplaceAll(cosim(t, "-config", smallPair), []byte("${1}T"))
	wire := elapsed.ReplaceAll(cosim(t, "-config", wirePath), []byte("${1}T"))
	if !bytes.HasPrefix(direct, []byte("simulated 500 jobs in T (")) || !bytes.Contains(direct, []byte("per-domain results")) {
		t.Fatalf("unexpected report:\n%s", direct)
	}
	if !bytes.Equal(direct, wire) {
		t.Fatalf("wire-protocol report differs from the direct one:\n--- direct\n%s--- wire\n%s", direct, wire)
	}
}
