package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// jsonDistributor is a Distributor that serializes everything it touches:
// every group's config and rows make a JSON round trip, and groups run in
// a scrambled order to prove the merge depends only on indices.
type jsonDistributor struct{ t *testing.T }

func (d jsonDistributor) RunGroups(kind SweepKind, cfg Config, numGroups int) ([][]CellRow, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var wireCfg Config
	if err := json.Unmarshal(raw, &wireCfg); err != nil {
		return nil, err
	}
	out := make([][]CellRow, numGroups)
	for i := 0; i < numGroups; i++ {
		g := (i*7 + 3) % numGroups // visit groups out of order
		if out[g] != nil {
			g = i
		}
		rows, err := RunSweepGroup(kind, wireCfg, g)
		if err != nil {
			return nil, err
		}
		rowsRaw, err := json.Marshal(rows)
		if err != nil {
			return nil, err
		}
		var wireRows []CellRow
		if err := json.Unmarshal(rowsRaw, &wireRows); err != nil {
			return nil, err
		}
		out[g] = wireRows
	}
	return out, nil
}

// loadFingerprint renders every load-sweep metric in %x for exact
// comparison (see propFingerprint).
func loadFingerprint(s *LoadSweep) []string {
	var out []string
	for _, util := range s.Utils {
		b := s.Baselines[util]
		out = append(out, fmt.Sprintf("base %v iw=%x ew=%x isd=%x esd=%x iu=%x eu=%x frac=%x",
			util, b.IntrepidWait, b.EurekaWait, b.IntrepidSlowdown, b.EurekaSlowdown,
			b.IntrepidUtil, b.EurekaUtil, s.PairedFraction[util]))
		for _, combo := range Combos {
			c := s.Cell(util, combo)
			out = append(out, fmt.Sprintf("cell %v %s iw=%x ew=%x isd=%x esd=%x isy=%x esy=%x ilnh=%x elnh=%x samples=%x/%x stuck=%d viol=%d paired=%d",
				util, combo.Label(), c.IntrepidWait, c.EurekaWait, c.IntrepidSlowdown, c.EurekaSlowdown,
				c.IntrepidSync, c.EurekaSync, c.IntrepidLossNH, c.EurekaLossNH,
				c.IntrepidWaitSamples, c.EurekaWaitSamples, c.Stuck, c.CoStartViol, c.PairedJobs))
		}
	}
	return out
}

// TestDistributedLoadSweepMatchesInProcess is the distribution acceptance
// test at the package level: a sweep fanned out through a Distributor —
// JSON round trips, out-of-order group execution — must be bit-identical
// to the in-process parallel run.
func TestDistributedLoadSweepMatchesInProcess(t *testing.T) {
	cfg := Config{Seed: 11, JobFactor: 0.02, Reps: 2, Parallelism: 2}
	local, err := RunLoadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dist = jsonDistributor{t}
	dist, err := RunLoadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := loadFingerprint(local), loadFingerprint(dist)
	if len(want) != len(got) {
		t.Fatalf("fingerprint length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n  local %s\n  dist  %s", i, want[i], got[i])
		}
	}
}

func TestDistributedProportionSweepMatchesInProcess(t *testing.T) {
	cfg := Config{Seed: 5, JobFactor: 0.01, Reps: 1, Parallelism: 2}
	local, err := RunProportionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dist = jsonDistributor{t}
	dist, err := RunProportionSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := propFingerprint(local), propFingerprint(dist)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n  local %s\n  dist  %s", i, want[i], got[i])
		}
	}
}

// TestRunSweepGroupValidation: bad kinds and out-of-range groups error
// instead of panicking, and row labeling survives validation.
func TestRunSweepGroupValidation(t *testing.T) {
	cfg := Config{Seed: 1, JobFactor: 0.01}
	if _, err := RunSweepGroup("bogus", cfg, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := RunSweepGroup(KindLoad, cfg, -1); err == nil {
		t.Fatal("negative group accepted")
	}
	n, err := NumGroups(KindLoad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweepGroup(KindLoad, cfg, n); err == nil {
		t.Fatal("out-of-range group accepted")
	}
	rows, err := RunSweepGroup(KindLoad, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != RowsPerGroup() {
		t.Fatalf("%d rows, want %d", len(rows), RowsPerGroup())
	}
	for i, r := range rows {
		if r.Group != 0 || r.Combo != i-1 {
			t.Fatalf("row %d mislabeled: %+v", i, r)
		}
	}
}

// badDistributor computes every group honestly and then breaks the
// RunGroups contract in one way before handing the rows back.
type badDistributor struct{ spoil func([][]CellRow) [][]CellRow }

func (d badDistributor) RunGroups(kind SweepKind, cfg Config, numGroups int) ([][]CellRow, error) {
	out := make([][]CellRow, numGroups)
	for g := range out {
		rows, err := RunSweepGroup(kind, cfg, g)
		if err != nil {
			return nil, err
		}
		out[g] = rows
	}
	return d.spoil(out), nil
}

// TestDistResultsRefusesBrokenContract: rows that do not fill their slots
// exactly are an error, never a silently different table.
func TestDistResultsRefusesBrokenContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spoil  func([][]CellRow) [][]CellRow
		errHas string
	}{
		{"wrong group count", func(g [][]CellRow) [][]CellRow { return g[1:] }, "groups, want"},
		{"short group", func(g [][]CellRow) [][]CellRow { g[2] = g[2][:len(g[2])-1]; return g }, "group 2 has"},
		{"mislabelled row", func(g [][]CellRow) [][]CellRow { g[1][3].Combo = 0; return g }, "group 1 row 3 mislabeled"},
		{"row from another group", func(g [][]CellRow) [][]CellRow { g[0], g[1] = g[1], g[0]; return g }, "group 0 row 0 mislabeled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 1, JobFactor: 0.01, Reps: 1, Dist: badDistributor{tc.spoil}}
			_, err := RunLoadSweep(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("RunLoadSweep = %v, want an error containing %q", err, tc.errHas)
			}
		})
	}
}
