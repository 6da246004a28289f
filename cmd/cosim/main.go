// Command cosim runs one coupled-system coscheduling simulation described
// by a JSON configuration file and prints per-domain metrics.
//
// Usage:
//
//	cosim -config sim.json
//	cosim -config sim.json -json        # machine-readable output
//	cosim -config sim.json -journal j   # journal each domain into j/<name>
//	cosim -verify j/*                   # check co-starts across journals
//
// configs/ holds example configurations, and internal/config's types
// define every key; a key they do not define is refused by name.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"cosched/internal/config"
	"cosched/internal/coupled"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/metrics"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

func main() {
	var (
		cfgPath    = flag.String("config", "", "JSON configuration file (required unless -verify)")
		asJSON     = flag.Bool("json", false, "emit the result as JSON")
		journalDir = flag.String("journal", "", "journal each domain's transitions into a new directory `dir`/<domain name>")
		verify     = flag.Bool("verify", false, "verify co-starts across the journal directories given as arguments and exit")
		seriesPath = flag.String("timeseries", "", "write a CSV time series of per-domain state to this path")
		seriesMin  = flag.Int64("timeseries-minutes", 60, "sampling period for -timeseries, in virtual minutes")
	)
	flag.Parse()
	if *seriesMin <= 0 {
		fmt.Fprintln(os.Stderr, "cosim: -timeseries-minutes must be positive")
		flag.Usage()
		os.Exit(2)
	}
	if *verify {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "cosim: -verify needs journal directories as arguments")
			flag.Usage()
			os.Exit(2)
		}
		verifyJournals(flag.Args())
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
	var stores []*journal.Store
	if *journalDir != "" {
		stores = openJournals(*journalDir, opt.Domains)
	}
	s, err := coupled.New(opt)
	if err != nil {
		fatal(err)
	}
	for i, st := range stores {
		if err := st.Compact(journal.ManagerSnapshot(s.Manager(opt.Domains[i].Name))); err != nil {
			fatal(err)
		}
	}
	var ser *series
	if *seriesPath != "" {
		domains := make([]string, 0, len(opt.Domains))
		for _, d := range opt.Domains {
			domains = append(domains, d.Name)
		}
		ser = sampleEvery(s, domains, sim.Duration(*seriesMin)*sim.Minute)
	}
	start := time.Now()
	res := s.Run()
	elapsed := time.Since(start)
	for _, st := range stores {
		if err := st.Close(); err != nil {
			fatal(err)
		}
	}
	if ser != nil {
		sf, err := os.Create(*seriesPath)
		if err != nil {
			fatal(err)
		}
		if err := ser.writeCSV(sf); err != nil {
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
		fmt.Fprintf(notes, "time series (%d samples) written to %s\n%s", len(ser.samples), *seriesPath, ser.summary())
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

// series is the -timeseries sampler: every domain's resmgr.Counts at a
// fixed virtual period. It watches the hold cascade the paper warns of
// (§IV-E2, most nodes in hold status), which end-of-run averages hide.
type series struct {
	domains []string
	samples []sample // time-major, domain-minor
}

type sample struct {
	at     sim.Time
	domain string
	resmgr.Counts
}

// sampleEvery arms the sampler on s; call it before Run. The sampler
// re-arms only while other events are pending, so it never keeps the
// simulation alive.
func sampleEvery(s *coupled.Sim, domains []string, period sim.Duration) *series {
	ser := &series{domains: domains}
	eng := s.Engine()
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		for _, d := range domains {
			ser.samples = append(ser.samples, sample{now, d, s.Manager(d).Counts()})
		}
		if eng.Pending() > 0 {
			eng.After(period, sim.PriorityMetrics, tick)
		}
	}
	eng.After(period, sim.PriorityMetrics, tick)
	return ser
}

// writeCSV writes the series with a header row. The columns after time_s
// and domain are the resmgr.Counts fields /status.json carries, named by
// their JSON tags, less the constant pool size.
func (ser *series) writeCSV(w io.Writer) error {
	ct := reflect.TypeOf(resmgr.Counts{})
	header := "time_s,domain"
	var cols []int
	for i := 0; i < ct.NumField(); i++ {
		if name := ct.Field(i).Tag.Get("json"); name != "-" && name != "nodes" {
			header += "," + name
			cols = append(cols, i)
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(header + "\n")
	for _, s := range ser.samples {
		fmt.Fprintf(bw, "%d,%s", s.at, s.domain)
		v := reflect.ValueOf(s.Counts)
		for _, i := range cols {
			fmt.Fprintf(bw, ",%v", v.Field(i))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// summary renders one line per domain, in name order: the peak held
// fraction and the peak queue length.
func (ser *series) summary() string {
	peakHeld := map[string]float64{}
	peakQueue := map[string]int{}
	for _, s := range ser.samples {
		peakHeld[s.domain] = max(peakHeld[s.domain], float64(s.Held)/float64(s.Nodes))
		peakQueue[s.domain] = max(peakQueue[s.domain], s.Queued)
	}
	doms := append([]string(nil), ser.domains...)
	sort.Strings(doms)
	var b strings.Builder
	for _, d := range doms {
		fmt.Fprintf(&b, "%s: peak held %.1f%%, peak queue %d jobs\n", d, 100*peakHeld[d], peakQueue[d])
	}
	return b.String()
}

// openJournals opens a journal store for each domain at dir/<name> and makes
// its recorder the domain's observer. The stores take no snapshot past the
// first, which the caller compacts once the managers exist, so each WAL
// keeps the run's whole history; and they fsync only on Close, since a
// simulation that dies is run again rather than recovered.
func openJournals(dir string, domains []coupled.DomainConfig) []*journal.Store {
	stores := make([]*journal.Store, len(domains))
	for i := range domains {
		st, err := journal.Open(filepath.Join(dir, domains[i].Name), journal.Options{FsyncInterval: math.MaxInt64})
		if err != nil {
			fatal(err)
		}
		if snap, entries := st.Recovered(); snap != nil || len(entries) > 0 {
			fatal(fmt.Errorf("journal %s is not empty", st.Dir()))
		}
		domains[i].Observer = journal.NewRecorder(st, nil, func(err error) { fatal(err) })
		stores[i] = st
	}
	return stores
}

// verifyJournals loads each journal directory without writing to it,
// prints what it holds, and checks that every started pair across them
// co-started. It exits 1 on a violation.
func verifyJournals(dirs []string) {
	jobs := make(map[string][]*job.Job, len(dirs))
	for _, dir := range dirs {
		st, torn, err := journal.Load(nil, dir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", dir, err))
		}
		if st.Domain == "" {
			fatal(fmt.Errorf("%s: no snapshot names the journal's domain", dir))
		}
		if _, dup := jobs[st.Domain]; dup {
			fatal(fmt.Errorf("%s: domain %s journaled twice", dir, st.Domain))
		}
		jobs[st.Domain] = st.Jobs
		fmt.Printf("journal %s (%s): t=%d, snapshot seq %d + %d entries, %d jobs (%s)\n",
			st.Domain, dir, st.T, st.SnapshotSeq, st.Entries, len(st.Jobs), journal.Tally(st.Jobs))
		if torn != nil {
			fmt.Printf("journal %s: read up to %v (a crash leaves one torn record; more suggests corruption)\n", st.Domain, torn)
		}
	}
	violations := invariant.VerifyCoStarts(jobs, nil)
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
