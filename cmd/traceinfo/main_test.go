package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/trace"
)

// testTrace renders a small SWF trace with a header, a mix of sizes and
// runtimes, and one invalid record (unknown runtime) the skip rules reject.
func testTrace(t *testing.T) []byte {
	t.Helper()
	var jobs []*job.Job
	for i := 1; i <= 40; i++ {
		j := job.New(job.ID(i), 1+(i*7)%32, sim.Time(i*300+(i%5)*13), sim.Duration(60+(i*97)%7200), sim.Duration(120+(i*97)%7200))
		j.User = i % 6
		jobs = append(jobs, j)
	}
	hdr := trace.NewHeader()
	hdr.Set("Version", "2.2")
	hdr.Set("Computer", "traceinfo-test")
	var buf bytes.Buffer
	if err := trace.Write(&buf, hdr, trace.FromJobs(jobs)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("9999 999999 -1 -1 -1 -1 -1 4 -1 -1 1 1 1 -1 -1 -1 -1 -1\n")
	return buf.Bytes()
}

// TestSummarizeReportsHeaderSkipsAndStats pins the report's head: the
// header comments, the skipped-record note, then the statistics.
func TestSummarizeReportsHeaderSkipsAndStats(t *testing.T) {
	got, err := summarize(bytes.NewReader(testTrace(t)), "x.swf", 64)
	if err != nil {
		t.Fatal(err)
	}
	want := "header:\n  Version: 2.2\n  Computer: traceinfo-test\n" +
		"skipped 1 records with unknown runtime/size\n" +
		"trace x.swf (machine 64 nodes)\n  jobs: 40  users: 6  paired: 0 (0.0%)\n"
	if !strings.HasPrefix(got, want) {
		t.Fatalf("report head:\n%s\nwant prefix:\n%s", got, want)
	}
}

// TestUnsortedStdinMatchesFile: a trace out of submit order prints one
// report whether it arrives as a file or on stdin, and that report is the
// one its records give in submit order.
func TestUnsortedStdinMatchesFile(t *testing.T) {
	// A record far in the past, appended last.
	src := append(testTrace(t), "9998 5 -1 3600 4 -1 -1 4 3600 -1 1 1 1 -1 -1 -1 -1 -1\n"...)
	path := filepath.Join(t.TempDir(), "unsorted.swf")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, err := summarize(f, path, 64)
	if err != nil {
		t.Fatal(err)
	}
	fromStdin, err := summarize(bytes.NewReader(src), "stdin", 64)
	if err != nil {
		t.Fatalf("unsorted stdin: %v", err)
	}
	if got := strings.Replace(fromStdin, "trace stdin ", "trace "+path+" ", 1); got != fromFile {
		t.Fatalf("stdin report differs from the file's:\n got:\n%s\nwant:\n%s", got, fromFile)
	}
	if !strings.Contains(fromFile, "jobs: 41 ") {
		t.Fatalf("out-of-order record not counted:\n%s", fromFile)
	}

	hdr, recs, err := trace.Read(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var sorted bytes.Buffer
	if err := trace.Write(&sorted, hdr, recs); err != nil {
		t.Fatal(err)
	}
	inOrder, err := summarize(&sorted, "stdin", 64)
	if err != nil {
		t.Fatal(err)
	}
	if inOrder != fromStdin {
		t.Fatalf("report depends on record order:\n got:\n%s\nwant:\n%s", fromStdin, inOrder)
	}
}
