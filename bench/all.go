package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// results is what a full run leaves in -out/results.json and what -compare
// reads: every run's record, without spans.
type results struct {
	Records []record `json:"records"`
}

// runAll runs every workload `runs` times untraced (on consecutive seeds)
// and once traced, each run in a fresh child process so heap state, GC
// settings and peak RSS do not leak between them.
func runAll(seed uint64, seconds, runs int, out string) error {
	if out == "" {
		out = filepath.Join(scratchRoot, "out")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var res results
	failed := 0
	child := func(w string, s uint64, trace int) {
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Printf("FAILED: %s seed %d trace %d: %v\n", w, s, trace, err)
			failed++
		}
		data, err := os.ReadFile(recordPath(out, w, s, trace))
		if err != nil {
			return // the child failed before it had a record to write
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			fmt.Printf("FAILED: %s seed %d trace %d: unreadable record: %v\n", w, s, trace, err)
			failed++
			return
		}
		rec.Spans = nil
		res.Records = append(res.Records, rec)
		fmt.Println()
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			child(w.Name, seed+uint64(i), 0)
		}
		child(w.Name, seed, 1)
	}
	path := filepath.Join(out, "results.json")
	if err := writeJSON(path, &res); err != nil {
		return err
	}
	printSummary(os.Stdout, &res)
	fmt.Printf("wrote %s (records and spans of each run are beside it)\n", path)
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

// samples collects one metric's values over the runs of one workload with
// the given trace setting.
func (r *results) samples(workload, metric string, trace int) []float64 {
	var vs []float64
	for _, rec := range r.Records {
		if rec.Workload == workload && rec.Trace == trace {
			if v, ok := rec.Outcome.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// printSummary prints each workload's end-to-end medians and its per-layer
// budget.
func printSummary(w io.Writer, r *results) {
	fmt.Fprintln(w, "=== end-to-end (median over untraced runs) ===")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			vs := r.samples(wl.Name, d.Name, 0)
			fmt.Fprintf(w, "%-12s %-16s %14.6g %-6s n=%d\n", wl.Name, d.Name, median(vs), d.Unit, len(vs))
		}
	}
	fmt.Fprintln(w, "=== per layer (traced run; 0 = the layer does no work on this workload) ===")
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-36s %-6s", d.Name, d.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %14.6g", median(r.samples(wl.Name, d.Name, 1)))
		}
		fmt.Fprintln(w)
	}
}

// exactCounters are the per-layer metrics of the sweep workloads that must
// repeat exactly between two sets of runs of one commit and seed.
var exactCounters = []string{"sim.events", "resmgr.iterations", "resmgr.skips", "cosched.peer_calls"}

// runCompare prints, for every (end-to-end metric, workload), both sets'
// medians and quartiles, the ratio B ÷ A, and a verdict against the
// metric's bound; then whether the exact counters and digests of matching
// runs are identical. It fails unless every pair is "ok".
func runCompare(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "A = %s, B = %s; ratio is median(B) ÷ median(A)\n", pathA, pathB)
	fmt.Fprintf(w, "%-12s %-16s %-6s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "median(A)", "[q1, q3](A)", "median(B)", "[q1, q3](B)", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.samples(wl.Name, d.Name, 0), b.samples(wl.Name, d.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing from one side\n", wl.Name, d.Name)
				bad++
				continue
			}
			v := judge(d, va, vb)
			if v.verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-16s %-6s %12.6g %25s %12.6g %25s %8.4f %6.2f  %s\n",
				wl.Name, d.Name, d.Unit, v.medA, fmt.Sprintf("[%.6g, %.6g]", v.q1A, v.q3A),
				v.medB, fmt.Sprintf("[%.6g, %.6g]", v.q1B, v.q3B), v.medB/v.medA, d.Bound, v.verdict)
		}
	}
	bad += compareExact(w, a, b)
	if bad > 0 {
		return fmt.Errorf("%d comparison(s) not ok", bad)
	}
	return nil
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judgement is one (metric, workload) comparison.
type judgement struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	verdict        string // ok, regression, or unresolved
}

// judge compares two sets of runs of one metric. The pair is unresolved
// when either side's interquartile spread, as a share of its median, is
// wider than the bound; a regression when B's median is worse than A's by
// more than the bound; ok otherwise. setup_s is judged on its medians alone,
// as the acceptance driver judges it: a run only sets up a handful of times.
func judge(d metricDef, a, b []float64) judgement {
	var j judgement
	j.q1A, j.medA, j.q3A = quartiles(a)
	j.q1B, j.medB, j.q3B = quartiles(b)
	worse := (j.medB - j.medA) / j.medA
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case d.Name != "setup_s" && ((j.q3A-j.q1A)/j.medA > d.Bound || (j.q3B-j.q1B)/j.medB > d.Bound):
		j.verdict = "unresolved"
	case worse > d.Bound:
		j.verdict = "regression"
	default:
		j.verdict = "ok"
	}
	return j
}

// compareExact checks that runs present in both sets under the same
// (workload, seed, trace) agree on their output digest and, for the sweep
// workloads' traced runs, on the exact counters. It returns the number of
// disagreements.
func compareExact(w io.Writer, a, b *results) int {
	type key struct {
		workload string
		seed     uint64
		trace    int
	}
	index := make(map[key]record)
	for _, rec := range b.Records {
		index[key{rec.Workload, rec.Seed, rec.Trace}] = rec
	}
	matched, bad := 0, 0
	for _, ra := range a.Records {
		rb, ok := index[key{ra.Workload, ra.Seed, ra.Trace}]
		if !ok {
			continue
		}
		matched++
		if da, db := ra.Info["digest"], rb.Info["digest"]; da != db {
			fmt.Fprintf(w, "exact: %s seed %d trace %d: digest %v vs %v\n", ra.Workload, ra.Seed, ra.Trace, da, db)
			bad++
		}
		if ra.Trace == 0 || ra.Workload == "live_pairs" {
			continue // live_pairs runs for a fixed time, so its counts scale with the machine
		}
		for _, name := range exactCounters {
			// Counts travel as JSON numbers; compare them as the integers they are.
			if va, vb := int64(ra.Outcome.Metrics[name].Value), int64(rb.Outcome.Metrics[name].Value); va != vb {
				fmt.Fprintf(w, "exact: %s seed %d: %s %v vs %v\n", ra.Workload, ra.Seed, name, va, vb)
				bad++
			}
		}
	}
	fmt.Fprintf(w, "exact counters and digests: %d matching run(s), %d difference(s)\n", matched, bad)
	return bad
}
