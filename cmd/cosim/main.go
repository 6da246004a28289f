// Command cosim runs one coupled-system coscheduling simulation described
// by a JSON configuration file and prints per-domain metrics.
//
// Usage:
//
//	cosim -config sim.json
//	cosim -config sim.json -json        # machine-readable output
//
// Example configuration:
//
//	{
//	  "wire_protocol": false,
//	  "domains": [
//	    {"name": "intrepid", "nodes": 40960, "backfilling": true,
//	     "cosched_enabled": true, "scheme": "hold", "release_minutes": 20,
//	     "synthetic": {"system": "intrepid", "util": 0.68, "seed": 1}},
//	    {"name": "eureka", "nodes": 100, "backfilling": true,
//	     "cosched_enabled": true, "scheme": "yield", "release_minutes": 20,
//	     "synthetic": {"system": "eureka", "util": 0.5, "seed": 2}}
//	  ],
//	  "pairs": [{"domain_a": "intrepid", "domain_b": "eureka", "window_seconds": 120}]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cosched/internal/config"
	"cosched/internal/coupled"
	"cosched/internal/eventlog"
	"cosched/internal/metrics"
	"cosched/internal/probe"
	"cosched/internal/sim"
)

func main() {
	var (
		cfgPath    = flag.String("config", "", "JSON configuration file (required unless -verify-log)")
		asJSON     = flag.Bool("json", false, "emit the result as JSON")
		logPath    = flag.String("log", "", "write a JSONL event log to this path")
		verifyLog  = flag.String("verify-log", "", "verify co-starts in an existing event log and exit")
		seriesPath = flag.String("timeseries", "", "write a CSV time series of per-domain state to this path")
		seriesMin  = flag.Int64("timeseries-minutes", 60, "sampling period for -timeseries, in virtual minutes")
	)
	flag.Parse()
	if *verifyLog != "" {
		verifyLogFile(*verifyLog)
		return
	}
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "cosim: -config is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := config.Load(*cfgPath)
	if err != nil {
		fatal(err)
	}
	opt, err := f.Build()
	if err != nil {
		fatal(err)
	}
	var elog *eventlog.Log
	if *logPath != "" {
		lf, err := os.Create(*logPath)
		if err != nil {
			fatal(err)
		}
		defer lf.Close()
		elog = eventlog.New(lf)
		defer func() {
			if err := elog.Flush(); err != nil {
				fatal(err)
			}
		}()
		for i := range opt.Domains {
			opt.Domains[i].Observer = elog.Observer(opt.Domains[i].Name)
		}
	}
	s, err := coupled.New(opt)
	if err != nil {
		fatal(err)
	}
	var rec *probe.Recorder
	if *seriesPath != "" {
		domains := make([]string, 0, len(opt.Domains))
		for _, d := range opt.Domains {
			domains = append(domains, d.Name)
		}
		rec, err = probe.Attach(s, domains, sim.Duration(*seriesMin)*sim.Minute)
		if err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	res := s.Run()
	elapsed := time.Since(start)
	if rec != nil {
		sf, err := os.Create(*seriesPath)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteCSV(sf); err != nil {
			fatal(err)
		}
		if err := sf.Close(); err != nil {
			fatal(err)
		}
		// With -json, stdout is the document and nothing else.
		notes := os.Stdout
		if *asJSON {
			notes = os.Stderr
		}
		fmt.Fprintf(notes, "time series (%d samples) written to %s\n%s", rec.Len(), *seriesPath, rec.Summary())
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("simulated %d jobs in %v (virtual makespan %.1f days, %d scheduling iterations)\n",
		res.TotalJobs, elapsed.Round(time.Millisecond),
		float64(res.Makespan)/86400, res.Iterations)
	if res.Deadlocked {
		fmt.Printf("DEADLOCK/STARVATION: %d jobs never completed\n", res.StuckJobs)
	}
	if res.CoStartViolations > 0 {
		fmt.Printf("WARNING: %d co-start violations\n", res.CoStartViolations)
	}
	names := make([]string, 0, len(res.Reports))
	for n := range res.Reports {
		names = append(names, n)
	}
	sort.Strings(names)
	t := metrics.NewTable("per-domain results",
		"domain", "jobs", "done", "avg_wait_min", "avg_slowdown", "avg_sync_min",
		"paired", "holds", "yields", "lost_node_hours", "lost_util_%", "util")
	for _, n := range names {
		r := res.Reports[n]
		t.AddRow(n,
			fmt.Sprintf("%d", r.TotalJobs),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%.1f", r.Wait.Mean),
			fmt.Sprintf("%.2f", r.Slowdown.Mean),
			fmt.Sprintf("%.1f", r.PairedSync.Mean),
			fmt.Sprintf("%d", r.PairedCount),
			fmt.Sprintf("%d", r.Holds),
			fmt.Sprintf("%d", r.Yields),
			fmt.Sprintf("%.0f", r.LostNodeHours),
			fmt.Sprintf("%.2f", 100*r.LostUtilization),
			fmt.Sprintf("%.3f", r.Utilization))
	}
	fmt.Println(t.Render())
}

// verifyLogFile replays an event log and reports co-start violations.
func verifyLogFile(path string) {
	lf, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer lf.Close()
	recs, skipped, err := eventlog.Read(lf)
	if err != nil {
		fatal(err)
	}
	stats := eventlog.Summarize(recs)
	fmt.Printf("log: %d records, domains %v, %d submits / %d starts / %d completes, %d holds, %d yields, %d releases\n",
		stats.Records, stats.Domains, stats.Submits, stats.Starts, stats.Completes,
		stats.Holds, stats.Yields, stats.Releases)
	if skipped > 0 {
		fmt.Printf("log damage: %d malformed line(s) skipped (torn tail from a crash is expected; more suggests corruption)\n", skipped)
	}
	if stats.Recoveries > 0 {
		fmt.Printf("recoveries: %d daemon restart milestone(s) in the log\n", stats.Recoveries)
	}
	if stats.PeerTransitions > 0 {
		fmt.Printf("peer links: %d breaker transitions (outages and recoveries interleaved with the run)\n",
			stats.PeerTransitions)
	}
	violations := eventlog.VerifyCoStarts(recs)
	if len(violations) == 0 {
		fmt.Println("CO-START VERIFIED: every started pair started simultaneously")
		return
	}
	for _, v := range violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cosim: %v\n", err)
	os.Exit(1)
}
