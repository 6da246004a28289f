package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"cosched/internal/job"
)

// groupRows computes group g's rows from the same two functions runSweep
// hands to runGrid — freeze the group's traces, then run every cell on a
// private materialization — one group at a time, as a Distributor would.
func groupRows(kind SweepKind, cfg Config, g int) ([]CellRow, error) {
	cfg = cfg.normalized()
	sp := sweepSpecs[kind]
	pair, err := sp.freeze(cfg, g)
	if err != nil {
		return nil, err
	}
	cell := onPair(func(g, c int, intr, eur []*job.Job) (CellRow, error) { return sp.row(cfg, g, c, intr, eur) })
	rows := make([]CellRow, RowsPerGroup())
	for c := range rows {
		if rows[c], err = cell(g, c, pair); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// jsonDistributor is a Distributor that serializes everything it touches:
// every group's config and rows make a JSON round trip, and groups run in
// a scrambled order to prove the merge depends only on indices.
type jsonDistributor struct{}

func (jsonDistributor) RunGroups(kind SweepKind, cfg Config, numGroups int) ([][]CellRow, error) {
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
		rows, err := groupRows(kind, wireCfg, g)
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

// checkDistributedMatchesInProcess runs one sweep in process and through
// the jsonDistributor and requires bit-identical fingerprints.
func checkDistributedMatchesInProcess(t *testing.T, run func(Config) (*Sweep, error), cfg Config) {
	t.Helper()
	local, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dist = jsonDistributor{}
	dist, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := fingerprint(local), fingerprint(dist)
	if len(want) != len(got) {
		t.Fatalf("fingerprint length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n  local %s\n  dist  %s", i, want[i], got[i])
		}
	}
}

// TestDistributedLoadSweepMatchesInProcess is the distribution acceptance
// test at the package level: a sweep fanned out through a Distributor —
// JSON round trips, out-of-order group execution — must be bit-identical
// to the in-process parallel run.
func TestDistributedLoadSweepMatchesInProcess(t *testing.T) {
	checkDistributedMatchesInProcess(t, RunLoadSweep, Config{Seed: 11, JobFactor: 0.02, Reps: 2, Parallelism: 2})
}

func TestDistributedProportionSweepMatchesInProcess(t *testing.T) {
	checkDistributedMatchesInProcess(t, RunProportionSweep, Config{Seed: 5, JobFactor: 0.01, Reps: 1, Parallelism: 2})
}

// badDistributor computes every group honestly and then breaks the
// RunGroups contract in one way before handing the rows back.
type badDistributor struct{ spoil func([][]CellRow) [][]CellRow }

func (d badDistributor) RunGroups(kind SweepKind, cfg Config, numGroups int) ([][]CellRow, error) {
	out := make([][]CellRow, numGroups)
	for g := range out {
		rows, err := groupRows(kind, cfg, g)
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
