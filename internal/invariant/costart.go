package invariant

import (
	"cmp"
	"fmt"
	"slices"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// Violation is one pair that did not co-start.
type Violation struct {
	Domain string
	JobID  job.ID
	Mate   job.MateRef
	Start  sim.Time
	MateAt sim.Time // the mate's start; -1 if the mate never started
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/job %d vs %s/job %d: %s (start %d vs %d)",
		v.Domain, v.JobID, v.Mate.Domain, v.Mate.Job, v.Reason, v.Start, v.MateAt)
}

// Both reports whether both halves of the pair started, at different
// instants; otherwise the mate never started.
func (v Violation) Both() bool { return v.MateAt >= 0 }

// VerifyCoStarts checks the paper's §V-B guarantee over finished jobs: every
// started job whose mate also started did so at the same instant. jobs holds
// each domain's jobs by domain name; mate finds a mate's job, and nil indexes
// jobs for it. It returns what EachCoStartViolation reports for every job,
// in (domain, job, mate) order on every call.
func VerifyCoStarts(jobs map[string][]*job.Job, mate func(job.MateRef) (*job.Job, bool)) []Violation {
	if mate == nil {
		index := make(map[job.MateRef]*job.Job)
		for domain, js := range jobs {
			for _, j := range js {
				index[job.MateRef{Domain: domain, Job: j.ID}] = j
			}
		}
		mate = func(ref job.MateRef) (*job.Job, bool) {
			j, ok := index[ref]
			return j, ok
		}
	}
	var out []Violation
	collect := func(v Violation) { out = append(out, v) }
	for domain, js := range jobs {
		for _, j := range js {
			EachCoStartViolation(domain, j, mate, collect)
		}
	}
	// The map range above visits domains in random order, so the order must
	// be total: one job with several violating mates sorts by mate too.
	slices.SortFunc(out, func(x, y Violation) int {
		return cmp.Or(cmp.Compare(x.Domain, y.Domain), cmp.Compare(x.JobID, y.JobID),
			cmp.Compare(x.Mate.Domain, y.Mate.Domain), cmp.Compare(x.Mate.Job, y.Mate.Job))
	})
	return out
}

// EachCoStartViolation is the co-start rule, applied to j, a job of domain:
// it calls fn once per mate of a started j that started at another instant,
// when j is the pair's side with the smaller (domain, job), and once per
// mate that never started, mate finding a mate's job. Walked over every job
// of every domain it reports each violating pair once; a caller that only
// counts them builds no list.
func EachCoStartViolation(domain string, j *job.Job, mate func(job.MateRef) (*job.Job, bool), fn func(Violation)) {
	if !started(j) {
		return
	}
	for _, ref := range j.Mates {
		v := Violation{Domain: domain, JobID: j.ID, Mate: ref, Start: j.StartTime, MateAt: -1}
		m, ok := mate(ref)
		switch {
		case !ok || !started(m):
			v.Reason = "mate never started"
		case m.StartTime == j.StartTime:
			continue
		case domain > ref.Domain || domain == ref.Domain && j.ID > ref.Job:
			continue // reported from the mate's side
		default:
			v.MateAt, v.Reason = m.StartTime, "start instants differ"
		}
		fn(v)
	}
}

// started reports whether j ever started: a running or completed job.
func started(j *job.Job) bool {
	return j.State == job.Running || j.State == job.Completed
}
