// Command traceinfo summarizes a job trace the way scheduler papers report
// workloads: counts, span, offered load, and the size/runtime/interarrival
// distributions. It reads the extended SWF format written by cmd/tracegen
// (or any standard SWF trace).
//
// The whole trace is read into memory (about 0.4 KB per job) and sorted, so
// a file and the same bytes on stdin print the same report, in any record
// order.
//
// Usage:
//
//	traceinfo -nodes 40960 intrepid.swf
//	tracegen -system eureka -util 0.5 | traceinfo -nodes 100 -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cosched/internal/trace"
	"cosched/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 0, "machine size for offered-load computation (required)")
	flag.Parse()
	if *nodes <= 0 {
		fmt.Fprintln(os.Stderr, "traceinfo: -nodes is required")
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "traceinfo: exactly one trace path (or -) expected")
		os.Exit(2)
	}

	in, name := io.Reader(os.Stdin), "stdin"
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in, name = f, path
	}
	out, err := summarize(in, name, *nodes)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

// summarize reads one SWF trace and renders the full report: header
// comments, the skipped-record note, and the workload statistics.
func summarize(r io.Reader, name string, nodes int) (string, error) {
	hdr, recs, err := trace.Read(r)
	if err != nil {
		return "", err
	}
	jobs, skipped := trace.ToJobs(recs)
	var b strings.Builder
	if len(hdr.Order) > 0 {
		b.WriteString("header:\n")
		for _, k := range hdr.Order {
			fmt.Fprintf(&b, "  %s: %s\n", k, hdr.Fields[k])
		}
	}
	if skipped > 0 {
		fmt.Fprintf(&b, "skipped %d records with unknown runtime/size\n", skipped)
	}
	b.WriteString(workload.Analyze(jobs, nodes).Render(name, nodes))
	return b.String(), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "traceinfo: %v\n", err)
	os.Exit(1)
}
