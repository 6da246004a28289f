// Package trace reads and writes job traces in the Standard Workload
// Format (SWF) used by the Parallel Workloads Archive, extended with an
// optional 19th field carrying coscheduling mate references
// ("domain:jobid[,domain:jobid...]"). Real Intrepid/Eureka traces, where
// available, can be dropped into the simulator through this package; the
// workload package generates synthetic equivalents in the same model.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// swfFields is the standard SWF field count; records may carry one extra
// mate field.
const swfFields = 18

// Record is one SWF line in parsed form. Only the fields the simulator
// consumes are interpreted; the rest round-trip as -1.
type Record struct {
	JobID    job.ID
	Submit   sim.Time     // field 2
	Wait     sim.Duration // field 3 (informational)
	Runtime  sim.Duration // field 4
	Procs    int          // field 5 (allocated)
	ReqProcs int          // field 8 (requested; fallback to Procs)
	ReqTime  sim.Duration // field 9 (requested walltime)
	Status   int          // field 11
	UserID   int          // field 12
	Mates    []job.MateRef
}

// Header carries the trace-level comments (`; key: value`).
type Header struct {
	Fields map[string]string
	Order  []string
}

// NewHeader creates an empty header.
func NewHeader() *Header {
	return &Header{Fields: make(map[string]string)}
}

// Set records a header key (preserving insertion order on write).
func (h *Header) Set(key, value string) {
	if _, ok := h.Fields[key]; !ok {
		h.Order = append(h.Order, key)
	}
	h.Fields[key] = value
}

// Write emits the trace: header comments then one line per record, sorted
// by submit time.
func Write(w io.Writer, hdr *Header, recs []Record) error {
	bw := bufio.NewWriter(w)
	if hdr != nil {
		for _, k := range hdr.Order {
			if _, err := fmt.Fprintf(bw, "; %s: %s\n", k, hdr.Fields[k]); err != nil {
				return err
			}
		}
	}
	sorted := append([]Record(nil), recs...)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].Submit < sorted[k].Submit })
	for _, r := range sorted {
		mate := "-1"
		if len(r.Mates) > 0 {
			parts := make([]string, len(r.Mates))
			for i, m := range r.Mates {
				parts[i] = fmt.Sprintf("%s:%d", m.Domain, m.Job)
			}
			mate = strings.Join(parts, ",")
		}
		reqProcs := r.ReqProcs
		if reqProcs == 0 {
			reqProcs = r.Procs
		}
		_, err := fmt.Fprintf(bw, "%d %d %d %d %d -1 -1 %d %d -1 %d %d -1 -1 -1 -1 -1 -1 %s\n",
			r.JobID, r.Submit, r.Wait, r.Runtime, r.Procs,
			reqProcs, r.ReqTime, r.Status, r.UserID, mate)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace. Blank lines are skipped; `; key: value` comments,
// wherever they appear, populate the header, and other comments are
// ignored. A malformed record fails with its line number.
func Read(r io.Reader) (*Header, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	hdr := NewHeader()
	var recs []Record
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			if k, v, ok := strings.Cut(strings.TrimSpace(line[1:]), ":"); ok {
				hdr.Set(strings.TrimSpace(k), strings.TrimSpace(v))
			}
			continue
		}
		rec, err := parseLine(line)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return hdr, recs, nil
}

func parseLine(line string) (Record, error) {
	f := strings.Fields(line)
	if len(f) < swfFields {
		return Record{}, fmt.Errorf("want ≥%d fields, got %d", swfFields, len(f))
	}
	geti := func(i int) (int64, error) {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("field %d %q: %w", i+1, f[i], err)
		}
		return v, nil
	}
	var rec Record
	var err error
	var v int64
	if v, err = geti(0); err != nil {
		return rec, err
	}
	rec.JobID = job.ID(v)
	if v, err = geti(1); err != nil {
		return rec, err
	}
	rec.Submit = v
	if v, err = geti(2); err != nil {
		return rec, err
	}
	rec.Wait = v
	if v, err = geti(3); err != nil {
		return rec, err
	}
	rec.Runtime = v
	if v, err = geti(4); err != nil {
		return rec, err
	}
	rec.Procs = int(v)
	if v, err = geti(7); err != nil {
		return rec, err
	}
	rec.ReqProcs = int(v)
	if v, err = geti(8); err != nil {
		return rec, err
	}
	rec.ReqTime = v
	if v, err = geti(10); err != nil {
		return rec, err
	}
	rec.Status = int(v)
	if v, err = geti(11); err != nil {
		return rec, err
	}
	rec.UserID = int(v)
	if len(f) > swfFields && f[swfFields] != "-1" {
		mates, err := ParseMates(f[swfFields])
		if err != nil {
			return rec, err
		}
		rec.Mates = mates
	}
	return rec, nil
}

// ParseMates parses "domain:jobid[,domain:jobid...]".
func ParseMates(s string) ([]job.MateRef, error) {
	var out []job.MateRef
	for _, part := range strings.Split(s, ",") {
		dom, idStr, ok := strings.Cut(part, ":")
		if !ok || dom == "" {
			return nil, fmt.Errorf("trace: bad mate ref %q", part)
		}
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad mate job id %q: %w", idStr, err)
		}
		out = append(out, job.MateRef{Domain: dom, Job: job.ID(id)})
	}
	return out, nil
}

// ToJobs converts records to simulator jobs in (SubmitTime, ID) order,
// stable for duplicate IDs. Records with non-positive runtime or procs (SWF
// uses -1 for unknown; requested procs stand in for allocated) or a
// negative submit are skipped; the count of skipped records is returned.
func ToJobs(recs []Record) (jobs []*job.Job, skipped int) {
	for _, r := range recs {
		nodes := r.Procs
		if nodes <= 0 {
			nodes = r.ReqProcs
		}
		if nodes <= 0 || r.Runtime <= 0 || r.Submit < 0 {
			skipped++
			continue
		}
		wall := r.ReqTime
		if wall < r.Runtime {
			wall = r.Runtime
		}
		j := job.New(r.JobID, nodes, r.Submit, r.Runtime, wall)
		if r.UserID > 0 {
			j.User = r.UserID
		}
		j.Mates = append([]job.MateRef(nil), r.Mates...)
		jobs = append(jobs, j)
	}
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].SubmitTime != jobs[k].SubmitTime {
			return jobs[i].SubmitTime < jobs[k].SubmitTime
		}
		return jobs[i].ID < jobs[k].ID
	})
	return jobs, skipped
}

// FromJobs converts simulator jobs to records (for tracegen output).
func FromJobs(jobs []*job.Job) []Record {
	recs := make([]Record, 0, len(jobs))
	for _, j := range jobs {
		wait := sim.Duration(-1)
		if j.State == job.Completed {
			wait = j.WaitTime()
		}
		recs = append(recs, Record{
			JobID:    j.ID,
			Submit:   j.SubmitTime,
			Wait:     wait,
			Runtime:  j.Runtime,
			Procs:    j.Nodes,
			ReqProcs: j.Nodes,
			ReqTime:  j.Walltime,
			Status:   1,
			UserID:   j.User,
			Mates:    append([]job.MateRef(nil), j.Mates...),
		})
	}
	return recs
}

// LoadFile reads a trace file and converts it to jobs.
func LoadFile(path string) (*Header, []*job.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	hdr, recs, err := Read(f)
	if err != nil {
		return nil, nil, err
	}
	jobs, _ := ToJobs(recs)
	return hdr, jobs, nil
}

// SaveFile writes jobs to a trace file.
func SaveFile(path string, hdr *Header, jobs []*job.Job) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, hdr, FromJobs(jobs))
}
