package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/sim"
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

// run runs the command and returns its exit code, stdout and stderr.
func run(t *testing.T, args ...string) (code int, stdout, stderr []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("cosim %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return code, out.Bytes(), errOut.Bytes()
}

// cosim runs the command and returns its stdout; it must exit 0.
func cosim(t *testing.T, args ...string) []byte {
	t.Helper()
	code, stdout, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("cosim %v: exit %d\n%s", args, code, stderr)
	}
	return stdout
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

// TestJournalThenVerify: -journal writes one journal directory per domain
// without moving a number of the report, and -verify replays them and
// finds every pair co-started. A copy of one directory whose journal moves
// one half's start instant fails verification with exit 1, naming the
// pair.
func TestJournalThenVerify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	elapsed := regexp.MustCompile(`^(simulated \d+ jobs in )\S+`)
	plain := elapsed.ReplaceAll(cosim(t, "-config", smallPair), []byte("${1}T"))
	journaled := elapsed.ReplaceAll(cosim(t, "-config", smallPair, "-journal", dir), []byte("${1}T"))
	if !bytes.Equal(plain, journaled) {
		t.Fatalf("-journal changed the report:\n--- plain\n%s--- journaled\n%s", plain, journaled)
	}
	hpc, viz := filepath.Join(dir, "hpc"), filepath.Join(dir, "viz")
	out := string(cosim(t, "-verify", hpc, viz))
	for _, want := range []string{"journal hpc (" + hpc + "):", "journal viz (" + viz + "):", "completed=200", "CO-START VERIFIED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-verify output lacks %q:\n%s", want, out)
		}
	}

	// Move the start of viz's first started paired job by a minute.
	st, _, err := journal.Load(nil, viz)
	if err != nil {
		t.Fatal(err)
	}
	var moved *job.Job
	for _, j := range st.Jobs {
		if j.Paired() && j.State == job.Completed {
			moved = j
			break
		}
	}
	if moved == nil {
		t.Fatal("viz journal holds no completed paired job")
	}
	wal, err := os.ReadFile(filepath.Join(viz, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	entries, _, torn := journal.DecodeEntries(wal)
	if torn != nil {
		t.Fatal(torn)
	}
	var rewritten []byte
	for i := range entries {
		if entries[i].Op == journal.OpStart && entries[i].Job == moved.ID {
			entries[i].Start += sim.Minute
		}
		if rewritten, err = journal.AppendRecord(rewritten, &entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	tampered := filepath.Join(t.TempDir(), "viz")
	snap, err := os.ReadFile(filepath.Join(viz, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(os.Mkdir(tampered, 0o755),
		os.WriteFile(filepath.Join(tampered, "snapshot.json"), snap, 0o644),
		os.WriteFile(filepath.Join(tampered, "journal.wal"), rewritten, 0o644)); err != nil {
		t.Fatal(err)
	}
	mate := moved.Mates[0]
	want := fmt.Sprintf("VIOLATION: %s/job %d vs viz/job %d: start instants differ (start %d vs %d)",
		mate.Domain, mate.Job, moved.ID, moved.StartTime, moved.StartTime+sim.Minute)
	code, stdout, stderr := run(t, "-verify", hpc, tampered)
	if code != 1 || !strings.Contains(string(stdout), want) {
		t.Fatalf("-verify on the tampered copy: exit %d, want 1 and %q\nstdout:\n%s\nstderr:\n%s", code, want, stdout, stderr)
	}
}

// TestTimeSeriesCSVIsPinned: the -timeseries CSV of configs/smallpair.json
// at the default 60-minute period, and the summary printed with it, are
// pinned: a change to the sampler or to resmgr.Counts that moves a byte
// fails here.
func TestTimeSeriesCSVIsPinned(t *testing.T) {
	series := filepath.Join(t.TempDir(), "series.csv")
	out := cosim(t, "-config", smallPair, "-timeseries", series, "-timeseries-minutes", "60")
	raw, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	const wantSum = "a7b6cc0c5af023073543a3132acc38d6c2b4e2b5f1155efa4470135f8165f7c7"
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != wantSum {
		t.Fatalf("CSV sha256 = %x, want %s", sum, wantSum)
	}
	want := "time series (1442 samples) written to " + series + "\n" +
		"hpc: peak held 11.2%, peak queue 0 jobs\n" +
		"viz: peak held 100.0%, peak queue 17 jobs\n"
	if !bytes.HasPrefix(out, []byte(want)) {
		t.Fatalf("stdout does not open with the summary:\n%s--- want\n%s", out, want)
	}
}

// TestTimeSeriesMinutesMustBePositive: a period of zero or less is refused
// as a usage error naming the flag, before the configuration is read (the
// path below does not exist, which would exit 1).
func TestTimeSeriesMinutesMustBePositive(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, v := range []string{"0", "-5"} {
		code, stdout, stderr := run(t, "-config", missing, "-timeseries", "x.csv", "-timeseries-minutes", v)
		if code != 2 || len(stdout) != 0 || !strings.Contains(string(stderr), "-timeseries-minutes") {
			t.Fatalf("-timeseries-minutes %s: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", v, code, stdout, stderr)
		}
	}
}

// pairSim builds a two-domain simulation whose paired job on A holds 50 of
// A's 100 nodes for the half hour until its mate on B is submitted.
func pairSim(t *testing.T) *coupled.Sim {
	t.Helper()
	ja := job.New(1, 50, 0, sim.Hour, sim.Hour)
	jb := job.New(1, 4, 30*sim.Minute, sim.Hour, sim.Hour)
	ja.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	jb.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	extra := job.New(2, 20, 5*sim.Minute, 2*sim.Hour, 2*sim.Hour)
	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
		{Name: "A", Nodes: 100, Backfilling: true,
			Cosched: cosched.DefaultConfig(cosched.Hold), Trace: []*job.Job{ja, extra}},
		{Name: "B", Nodes: 8, Backfilling: true,
			Cosched: cosched.DefaultConfig(cosched.Yield), Trace: []*job.Job{jb}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTimeSeriesSamplesBothDomains(t *testing.T) {
	s := pairSim(t)
	ser := sampleEvery(s, []string{"A", "B"}, 10*sim.Minute)
	if res := s.Run(); res.StuckJobs != 0 {
		t.Fatalf("stuck = %d", res.StuckJobs)
	}
	domains := map[string]bool{}
	sawHeld := false
	for _, smp := range ser.samples {
		domains[smp.domain] = true
		sawHeld = sawHeld || smp.domain == "A" && smp.Held == 50
		if smp.Free < 0 || smp.Held < 0 || smp.Queued < 0 {
			t.Fatalf("negative sample: %+v", smp)
		}
	}
	if !domains["A"] || !domains["B"] {
		t.Fatalf("domains sampled: %v", domains)
	}
	// The 10-minute sampler sees the half-hour hold, so A's peak held
	// fraction is its 50 of 100 nodes.
	if !sawHeld {
		t.Fatal("sampler never observed the 50 held nodes")
	}
	if sum := ser.summary(); !strings.HasPrefix(sum, "A: peak held 50.0%,") {
		t.Fatalf("summary = %q, want A's peak held at 50%%", sum)
	}
}

func TestTimeSeriesCSVRows(t *testing.T) {
	s := pairSim(t)
	ser := sampleEvery(s, []string{"A"}, 15*sim.Minute)
	s.Run()
	var buf bytes.Buffer
	if err := ser.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(ser.samples) == 0 || len(lines) != len(ser.samples)+1 {
		t.Fatalf("csv lines = %d, want %d samples + header", len(lines), len(ser.samples))
	}
	if want := "time_s,domain,free,held,running_nodes,queued_jobs,holding_jobs,completed_jobs"; lines[0] != want {
		t.Fatalf("header = %q, want %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "900,A,") {
		t.Fatalf("first row = %q, want A's sample at t=900", lines[1])
	}
}

// TestTimeSeriesDoesNotKeepSimAlive: A1 holds all of A for a mate queued
// behind B2, which holds all of B for a mate queued behind A1. With no
// release interval nothing breaks the deadlock, so the engine drains and
// Run reports four stuck jobs at once. A sampler that re-armed whatever
// was pending would keep the engine busy until the simulation horizon.
func TestTimeSeriesDoesNotKeepSimAlive(t *testing.T) {
	a1 := job.New(1, 100, 0, sim.Hour, sim.Hour)
	a2 := job.New(2, 100, sim.Minute, sim.Hour, sim.Hour)
	b2 := job.New(2, 8, 0, sim.Hour, sim.Hour)
	b1 := job.New(1, 8, sim.Minute, sim.Hour, sim.Hour)
	a1.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	b1.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	a2.Mates = []job.MateRef{{Domain: "B", Job: 2}}
	b2.Mates = []job.MateRef{{Domain: "A", Job: 2}}
	hold := cosched.DefaultConfig(cosched.Hold)
	hold.ReleaseInterval = 0
	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
		{Name: "A", Nodes: 100, Cosched: hold, Trace: []*job.Job{a1, a2}},
		{Name: "B", Nodes: 8, Cosched: hold, Trace: []*job.Job{b2, b1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sampleEvery(s, []string{"A", "B"}, sim.Minute)
	res := s.Run()
	if res.StuckJobs != 4 || res.HitHorizon || res.Makespan > sim.Hour {
		t.Fatalf("stuck %d, horizon %v, makespan %d: want the deadlock reported when the engine drains",
			res.StuckJobs, res.HitHorizon, res.Makespan)
	}
}
