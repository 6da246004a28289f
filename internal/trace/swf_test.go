package trace

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/job"
	"cosched/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	jobs, err := workload.Generate(workload.EurekaSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:200]
	jobs[3].Mates = []job.MateRef{{Domain: "intrepid", Job: 77}}
	jobs[5].Mates = []job.MateRef{{Domain: "intrepid", Job: 12}, {Domain: "lens", Job: 9}}

	hdr := NewHeader()
	hdr.Set("System", "Eureka synthetic")
	hdr.Set("Nodes", "100")

	var buf bytes.Buffer
	if err := Write(&buf, hdr, FromJobs(jobs)); err != nil {
		t.Fatal(err)
	}
	gotHdr, recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Fields["System"] != "Eureka synthetic" || gotHdr.Fields["Nodes"] != "100" {
		t.Fatalf("header = %+v", gotHdr.Fields)
	}
	got, skipped := ToJobs(recs)
	if skipped != 0 {
		t.Fatalf("skipped %d records", skipped)
	}
	if len(got) != len(jobs) {
		t.Fatalf("got %d jobs, want %d", len(got), len(jobs))
	}
	byID := map[job.ID]*job.Job{}
	for _, j := range got {
		byID[j.ID] = j
	}
	for _, want := range jobs {
		g := byID[want.ID]
		if g == nil {
			t.Fatalf("job %d lost", want.ID)
		}
		if g.SubmitTime != want.SubmitTime || g.Runtime != want.Runtime ||
			g.Nodes != want.Nodes || g.Walltime != want.Walltime {
			t.Fatalf("job %d mismatch: got %+v want %+v", want.ID, g, want)
		}
		if len(g.Mates) != len(want.Mates) {
			t.Fatalf("job %d mates: got %v want %v", want.ID, g.Mates, want.Mates)
		}
		for i := range g.Mates {
			if g.Mates[i] != want.Mates[i] {
				t.Fatalf("job %d mate %d mismatch", want.ID, i)
			}
		}
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	input := `; Version: 2.2
; Computer: test

1 100 -1 600 64 -1 -1 64 900 -1 1 -1 -1 -1 -1 -1 -1 -1
; stray comment without colon value format
2 200 -1 300 32 -1 -1 32 600 -1 1 -1 -1 -1 -1 -1 -1 -1 other:5
`
	hdr, recs, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Fields["Version"] != "2.2" {
		t.Fatalf("header = %+v", hdr.Fields)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if len(recs[1].Mates) != 1 || recs[1].Mates[0] != (job.MateRef{Domain: "other", Job: 5}) {
		t.Fatalf("mates = %+v", recs[1].Mates)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"1 2 3", // too few fields
		"x 100 -1 600 64 -1 -1 64 900 -1 1 -1 -1 -1 -1 -1 -1 -1",          // bad int
		"1 100 -1 600 64 -1 -1 64 900 -1 1 -1 -1 -1 -1 -1 -1 -1 nomcolon", // bad mate
	}
	for _, c := range cases {
		if _, _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("malformed line accepted: %q", c)
		}
	}
}

// TestReadFoldsMidFileComments: `; key: value` comments anywhere in the
// file join the header in order of appearance; records keep file order.
func TestReadFoldsMidFileComments(t *testing.T) {
	input := `; Version: 2.2
1 0 -1 600 64 -1 -1 64 900 -1 1 7 -1 -1 -1 -1 -1 -1 eureka:1
; MidFile: comment
2 30 -1 120 8 -1 -1 8 120 -1 1 9 -1 -1 -1 -1 -1 -1 -1
`
	hdr, recs, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(hdr.Order, ",") != "Version,MidFile" || hdr.Fields["MidFile"] != "comment" {
		t.Fatalf("header = %v %v", hdr.Order, hdr.Fields)
	}
	if len(recs) != 2 || recs[0].JobID != 1 || recs[1].JobID != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestReadErrorCarriesLineNumber(t *testing.T) {
	in := "; Version: 2.2\n\n1 0 -1 600 64 -1 -1 64 900 -1 1 7 -1 -1 -1 -1 -1 -1\nnot a record\n"
	if _, _, err := Read(strings.NewReader(in)); err == nil || !strings.HasPrefix(err.Error(), "trace: line 4: ") {
		t.Fatalf("err = %v, want trace: line 4 attribution", err)
	}
}

// TestToJobsOrdersTiesByID: jobs come out by (SubmitTime, ID), whatever the
// record order, with duplicate IDs left in record order.
func TestToJobsOrdersTiesByID(t *testing.T) {
	recs := []Record{
		{JobID: 6, Submit: 95, Runtime: 120, Procs: 16},
		{JobID: 9, Submit: 30, Runtime: 60, Procs: 8},
		{JobID: 2, Submit: 30, Runtime: 60, Procs: 8},
		{JobID: 3, Submit: 30, Runtime: -1, Procs: 8}, // skipped
		{JobID: 7, Submit: 30, Runtime: 60, Procs: 8, UserID: 1},
		{JobID: 5, Submit: 0, Runtime: 60, Procs: 4},
		{JobID: 7, Submit: 30, Runtime: 60, Procs: 8, UserID: 2},
		{JobID: 1, Submit: 95, Runtime: 10, Procs: 1},
	}
	jobs, skipped := ToJobs(recs)
	var got []string
	for _, j := range jobs {
		got = append(got, fmt.Sprintf("%d@%d/u%d", j.ID, j.SubmitTime, j.User))
	}
	want := "5@0/u0 2@30/u0 7@30/u1 7@30/u2 9@30/u0 1@95/u0 6@95/u0"
	if strings.Join(got, " ") != want || skipped != 1 {
		t.Fatalf("jobs = %v skipped %d, want %s skipped 1", got, skipped, want)
	}
}

func TestToJobsSkipsInvalid(t *testing.T) {
	recs := []Record{
		{JobID: 1, Submit: 0, Runtime: 600, Procs: 4},
		{JobID: 2, Submit: 0, Runtime: -1, Procs: 4},   // unknown runtime
		{JobID: 3, Submit: 0, Runtime: 600, Procs: -1}, // unknown procs, no req
		{JobID: 4, Submit: 0, Runtime: 600, Procs: -1, ReqProcs: 8},
		{JobID: 5, Submit: -1, Runtime: 600, Procs: 4}, // negative submit
	}
	jobs, skipped := ToJobs(recs)
	if len(jobs) != 2 || skipped != 3 {
		t.Fatalf("jobs=%d skipped=%d, want 2/3", len(jobs), skipped)
	}
	if jobs[1].Nodes != 8 {
		t.Fatalf("ReqProcs fallback failed: nodes=%d", jobs[1].Nodes)
	}
}

func TestParseMates(t *testing.T) {
	mates, err := ParseMates("a:1,b:2,c:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(mates) != 3 || mates[2] != (job.MateRef{Domain: "c", Job: 3}) {
		t.Fatalf("mates = %+v", mates)
	}
	for _, bad := range []string{"", "nodomain", ":5", "a:xyz"} {
		if _, err := ParseMates(bad); err == nil {
			t.Errorf("ParseMates(%q) accepted", bad)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.swf")
	jobs, _ := workload.Generate(workload.EurekaSpec(1))
	jobs = jobs[:50]
	hdr := NewHeader()
	hdr.Set("Note", "roundtrip")
	if err := SaveFile(path, hdr, jobs); err != nil {
		t.Fatal(err)
	}
	gotHdr, got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Fields["Note"] != "roundtrip" {
		t.Fatalf("header = %+v", gotHdr.Fields)
	}
	if len(got) != 50 {
		t.Fatalf("got %d jobs", len(got))
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, _, err := LoadFile("/nonexistent/path.swf"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWriteSortsBySubmit(t *testing.T) {
	recs := []Record{
		{JobID: 2, Submit: 500, Runtime: 10, Procs: 1},
		{JobID: 1, Submit: 100, Runtime: 10, Procs: 1},
	}
	var buf bytes.Buffer
	if err := Write(&buf, nil, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "1 ") || !strings.HasPrefix(lines[1], "2 ") {
		t.Fatalf("output not sorted:\n%s", buf.String())
	}
}

func TestFromJobsWritesRealWaitWhenCompleted(t *testing.T) {
	j := job.New(1, 4, 100, 600, 600)
	j.State = job.Completed
	j.StartTime = 400
	j.EndTime = 1000
	recs := FromJobs([]*job.Job{j})
	if recs[0].Wait != 300 {
		t.Fatalf("wait = %d, want 300", recs[0].Wait)
	}
	pending := job.New(2, 4, 100, 600, 600)
	recs = FromJobs([]*job.Job{pending})
	if recs[0].Wait != -1 {
		t.Fatalf("pending wait = %d, want -1", recs[0].Wait)
	}
}
