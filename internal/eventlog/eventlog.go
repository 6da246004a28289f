// Package eventlog records job lifecycle events as JSON lines and verifies
// coscheduling invariants from the log alone — the paper's §V-B validation
// method ("the output logs show that all the paired jobs start at the same
// time with their own mate jobs no matter which one gets ready first").
//
// A Log fans in events from every domain of a simulation (or live daemon)
// through resmgr.Observer adapters; the Reader side replays a log and
// checks that every started pair co-started, without trusting any
// in-memory state of the run that produced it.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// Event kinds.
const (
	KindSubmit   = "submit"
	KindStart    = "start"
	KindComplete = "complete"
	KindHold     = "hold"
	KindYield    = "yield"
	KindRelease  = "release"
	KindCancel   = "cancel"
	// KindPeer records a peer-link breaker transition (internal/peerlink):
	// resilience telemetry interleaved with the job lifecycle so an outage
	// window can be read off the same log as the co-starts it affected.
	KindPeer = "peer"
	// KindRecovery records a daemon restart milestone (journal replayed,
	// mates reconciled) so a crash window reads off the same log as the
	// lifecycle records it interrupted.
	KindRecovery = "recovery"
)

// Record is one logged event.
type Record struct {
	Time   sim.Time      `json:"t"`
	Domain string        `json:"domain"`
	Kind   string        `json:"kind"`
	JobID  job.ID        `json:"job"`
	User   int           `json:"user,omitempty"`
	Nodes  int           `json:"nodes,omitempty"`
	Mates  []job.MateRef `json:"mates,omitempty"` // on submit records
	Wait   sim.Duration  `json:"wait,omitempty"`  // on start records
	Sync   sim.Duration  `json:"sync,omitempty"`  // on start records
	Yields int           `json:"yields,omitempty"`
	Peer   string        `json:"peer,omitempty"`   // on peer records: remote domain
	Detail string        `json:"detail,omitempty"` // on peer records: "closed -> open (cause)"
}

// Log serializes events from any number of domains to one writer. Safe for
// concurrent use (live daemons log from multiple goroutines).
type Log struct {
	mu      sync.Mutex
	w       *bufio.Writer
	err     error
	records int
}

// New wraps w. Call Flush (or Close the underlying writer after Flush)
// when done.
func New(w io.Writer) *Log {
	return &Log{w: bufio.NewWriter(w)}
}

// Err returns the first write error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Records returns how many events were written.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Flush drains the buffer.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// emit writes one record.
func (l *Log) emit(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	data, err := json.Marshal(r)
	if err != nil {
		l.err = err
		return
	}
	if _, err := l.w.Write(append(data, '\n')); err != nil {
		l.err = err
		return
	}
	l.records++
}

// PeerTransition logs a breaker transition on the link from domain to
// peer. cause may be empty (recovery transitions have no error).
func (l *Log) PeerTransition(now sim.Time, domain, peer, from, to, cause string) {
	detail := from + " -> " + to
	if cause != "" {
		detail += " (" + cause + ")"
	}
	l.emit(Record{Time: now, Domain: domain, Kind: KindPeer, Peer: peer, Detail: detail})
}

// Recovery logs a restart milestone for the named domain, e.g.
// "replayed 42 entries" or "reconciled with B: co-starts=1".
func (l *Log) Recovery(now sim.Time, domain, detail string) {
	l.emit(Record{Time: now, Domain: domain, Kind: KindRecovery, Detail: detail})
}

// Observer returns a resmgr.Observer that logs the named domain's events
// into l.
func (l *Log) Observer(domain string) resmgr.Observer {
	return &observer{log: l, domain: domain}
}

type observer struct {
	resmgr.NullObserver // expectations and peer decisions are not logged
	log                 *Log
	domain              string
}

func (o *observer) JobSubmitted(now sim.Time, j *job.Job) {
	o.log.emit(Record{Time: now, Domain: o.domain, Kind: KindSubmit,
		JobID: j.ID, User: j.User, Nodes: j.Nodes,
		Mates: append([]job.MateRef(nil), j.Mates...)})
}

func (o *observer) JobStarted(now sim.Time, j *job.Job) {
	o.log.emit(Record{Time: now, Domain: o.domain, Kind: KindStart,
		JobID: j.ID, Nodes: j.Nodes, Wait: j.WaitTime(), Sync: j.SyncTime()})
}

func (o *observer) JobCompleted(now sim.Time, j *job.Job) {
	o.log.emit(Record{Time: now, Domain: o.domain, Kind: KindComplete, JobID: j.ID})
}

func (o *observer) JobHeld(now sim.Time, j *job.Job) {
	o.log.emit(Record{Time: now, Domain: o.domain, Kind: KindHold,
		JobID: j.ID, Nodes: j.Nodes})
}

func (o *observer) JobYielded(now sim.Time, j *job.Job) {
	o.log.emit(Record{Time: now, Domain: o.domain, Kind: KindYield,
		JobID: j.ID, Yields: j.YieldCount})
}

func (o *observer) JobReleased(now sim.Time, j *job.Job, _ bool) {
	o.log.emit(Record{Time: now, Domain: o.domain, Kind: KindRelease,
		JobID: j.ID, Nodes: j.Nodes})
}

func (o *observer) JobCancelled(now sim.Time, j *job.Job) {
	o.log.emit(Record{Time: now, Domain: o.domain, Kind: KindCancel, JobID: j.ID})
}

// Read parses a JSONL event log, skipping malformed lines instead of
// failing, and reports how many were skipped. A kill -9 can leave a torn
// final line in a daemon's log (the restarted daemon guards against it
// compounding, but the torn line itself remains), so verification reads
// past it; a caller that wants a clean log checks skipped == 0.
func Read(r io.Reader) ([]Record, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	skipped := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			skipped++
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, err
	}
	return out, skipped, nil
}

// Violation is one co-start failure found in a log.
type Violation struct {
	Domain string
	JobID  job.ID
	Mate   job.MateRef
	Start  sim.Time
	MateAt sim.Time // mate's start; -1 if the mate started never/unknown
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/job %d vs %s/job %d: %s (start %d vs %d)",
		v.Domain, v.JobID, v.Mate.Domain, v.Mate.Job, v.Reason, v.Start, v.MateAt)
}

// VerifyCoStarts replays a log and returns every pair that started out of
// sync: both members started but at different instants, or one started and
// completed while its mate never started. It trusts only the log.
func VerifyCoStarts(records []Record) []Violation {
	type key struct {
		domain string
		id     job.ID
	}
	mates := make(map[key][]job.MateRef)
	starts := make(map[key]sim.Time)
	started := make(map[key]bool)
	for _, r := range records {
		k := key{r.Domain, r.JobID}
		switch r.Kind {
		case KindSubmit:
			if len(r.Mates) > 0 {
				mates[k] = r.Mates
			}
		case KindStart:
			starts[k] = r.Time
			started[k] = true
		}
	}
	var out []Violation
	for k, ms := range mates {
		if !started[k] {
			continue
		}
		for _, m := range ms {
			mk := key{m.Domain, m.Job}
			// Report each violating pair once.
			if k.domain > m.Domain || (k.domain == m.Domain && k.id > m.Job) {
				continue
			}
			if !started[mk] {
				out = append(out, Violation{
					Domain: k.domain, JobID: k.id, Mate: m,
					Start: starts[k], MateAt: -1,
					Reason: "mate never started",
				})
				continue
			}
			if starts[mk] != starts[k] {
				out = append(out, Violation{
					Domain: k.domain, JobID: k.id, Mate: m,
					Start: starts[k], MateAt: starts[mk],
					Reason: "start instants differ",
				})
			}
		}
	}
	// The map range above visits jobs in random order, so the order must be
	// total: one job with several violating mates sorts by mate too.
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Domain != y.Domain {
			return x.Domain < y.Domain
		}
		if x.JobID != y.JobID {
			return x.JobID < y.JobID
		}
		if x.Mate.Domain != y.Mate.Domain {
			return x.Mate.Domain < y.Mate.Domain
		}
		return x.Mate.Job < y.Mate.Job
	})
	return out
}

// Stats summarizes a log.
type Stats struct {
	Records   int
	Submits   int
	Starts    int
	Completes int
	Holds     int
	Yields    int
	Releases  int
	Cancels   int
	// PeerTransitions counts breaker transitions (KindPeer records) — a
	// rough health indicator for the run's peer links.
	PeerTransitions int
	// Recoveries counts daemon restart milestones (KindRecovery records).
	Recoveries int
	Domains    []string
}

// Summarize tallies a log.
func Summarize(records []Record) Stats {
	s := Stats{Records: len(records)}
	domains := map[string]bool{}
	for _, r := range records {
		domains[r.Domain] = true
		switch r.Kind {
		case KindSubmit:
			s.Submits++
		case KindStart:
			s.Starts++
		case KindComplete:
			s.Completes++
		case KindHold:
			s.Holds++
		case KindYield:
			s.Yields++
		case KindRelease:
			s.Releases++
		case KindCancel:
			s.Cancels++
		case KindPeer:
			s.PeerTransitions++
		case KindRecovery:
			s.Recoveries++
		}
	}
	for d := range domains {
		s.Domains = append(s.Domains, d)
	}
	sort.Strings(s.Domains)
	return s
}
