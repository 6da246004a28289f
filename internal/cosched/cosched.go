// Package cosched defines the coscheduling vocabulary from Tang et al.
// (ICPP 2011): the hold/yield schemes, the mate-status values exchanged
// between scheduling domains, the per-domain configuration (including the
// deadlock-breaking release interval and the performance-impact
// thresholds), and the Peer interface — the lightweight coordination
// protocol Algorithm 1 speaks against a remote resource manager.
//
// The algorithm itself lives in internal/resmgr, which extends the
// resource manager's Run_Job function exactly as the paper describes.
package cosched

import (
	"fmt"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// Scheme selects what a ready job does when its remote mate cannot start:
// hold its assigned nodes, or yield the slot.
type Scheme int

const (
	// Hold keeps the assigned nodes busy (invisible to other jobs) until
	// the mate becomes ready. Minimizes pair synchronization time at the
	// cost of wasted service units.
	Hold Scheme = iota
	// Yield gives the slot back to the scheduler and returns the job to
	// the queue. Costs nothing in service units but the job may yield
	// repeatedly before the pair aligns.
	Yield
)

// String returns "hold" or "yield".
func (s Scheme) String() string {
	if s == Yield {
		return "yield"
	}
	return "hold"
}

// Short returns the single-letter form used in the paper's figures (H/Y).
func (s Scheme) Short() string {
	if s == Yield {
		return "Y"
	}
	return "H"
}

// ParseScheme parses "hold"/"h"/"H" or "yield"/"y"/"Y"; "" is Hold, the
// default, as "" is for every name parser a domain description uses.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "", "hold", "h", "H":
		return Hold, nil
	case "yield", "y", "Y":
		return Yield, nil
	default:
		return Hold, fmt.Errorf("cosched: unknown scheme %q", s)
	}
}

// MateStatus is the answer to a GetMateStatus query, mirroring the status
// switch in Algorithm 1 plus terminal states needed for fault tolerance.
type MateStatus int

const (
	// StatusUnknown means the remote manager has no record of the job or
	// the query failed; Algorithm 1 starts the local job normally.
	StatusUnknown MateStatus = iota
	// StatusUnsubmitted means the remote expects the job (it appears in
	// the registered workload) but it has not arrived in the queue.
	StatusUnsubmitted
	// StatusQueuing means the mate is waiting in the remote queue.
	StatusQueuing
	// StatusHolding means the mate holds its nodes waiting for us: both
	// sides can start immediately.
	StatusHolding
	// StatusRunning means the mate already started (only possible after a
	// fault-tolerance fallback start).
	StatusRunning
	// StatusCompleted means the mate already finished.
	StatusCompleted
)

// statusNames is indexed by status; the names are the wire encoding.
var statusNames = [...]string{
	StatusUnknown:     "unknown",
	StatusUnsubmitted: "unsubmitted",
	StatusQueuing:     "queuing",
	StatusHolding:     "holding",
	StatusRunning:     "running",
	StatusCompleted:   "completed",
}

// String returns the wire name of the status.
func (m MateStatus) String() string {
	if m >= 0 && int(m) < len(statusNames) {
		return statusNames[m]
	}
	return fmt.Sprintf("matestatus(%d)", int(m))
}

// ParseMateStatus inverts String.
func ParseMateStatus(s string) (MateStatus, error) {
	for st, name := range statusNames {
		if name == s {
			return MateStatus(st), nil
		}
	}
	return StatusUnknown, fmt.Errorf("cosched: unknown mate status %q", s)
}

// FromJobState maps a locally observed job state to the status reported to
// a peer.
func FromJobState(s job.State) MateStatus {
	switch s {
	case job.Unsubmitted:
		return StatusUnsubmitted
	case job.Queued:
		return StatusQueuing
	case job.Holding:
		return StatusHolding
	case job.Running:
		return StatusRunning
	case job.Completed:
		return StatusCompleted
	default:
		// Cancelled (and anything unexpected) imposes no co-start
		// constraint: the partner starts normally.
		return StatusUnknown
	}
}

// Config is one domain's coscheduling configuration. The zero value is a
// disabled coscheduler; DefaultConfig matches the paper's experiments.
type Config struct {
	// Enabled gates the whole mechanism (Algorithm 1's cosched_enabled).
	Enabled bool
	// Scheme is the locally configured behaviour when the mate is not
	// ready. Schemes are purely local: no domain needs to know its
	// peer's configuration (§IV-E1).
	Scheme Scheme
	// ReleaseInterval is the deadlock-breaking enhancement (§IV-E1): a
	// holding job releases its nodes every interval and is ranked last
	// for one scheduling iteration; 0 disables the enhancement (hold-hold
	// may then deadlock). The paper's experiments use 20 minutes.
	ReleaseInterval sim.Duration
	// MaxHeldFraction caps the proportion of the machine that may be in
	// hold state; a job that would push the held fraction above the cap
	// yields instead (§IV-E2). 1.0 (or 0, treated as 1.0) = no cap.
	MaxHeldFraction float64
	// MaxYields, when positive, lets a job that has yielded this many
	// times start holding instead (§IV-E2's anti-starvation escalation).
	MaxYields int
	// YieldBoost, when true, raises a job's queue priority after every
	// yield (§IV-E2's alternative enhancement).
	YieldBoost bool
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: enabled, 20-minute release interval, no held-fraction cap, no
// yield escalation.
func DefaultConfig(s Scheme) Config {
	return Config{
		Enabled:         true,
		Scheme:          s,
		ReleaseInterval: 20 * sim.Minute,
		MaxHeldFraction: 1.0,
	}
}

// EffectiveMaxHeldFraction normalizes the cap (0 means uncapped).
func (c Config) EffectiveMaxHeldFraction() float64 {
	if c.MaxHeldFraction <= 0 || c.MaxHeldFraction > 1 {
		return 1.0
	}
	return c.MaxHeldFraction
}

// Peer is the lightweight coordination protocol one resource manager speaks
// to another. Implementations: resmgr.Manager, which answers it (a direct,
// in-process peer), and proto.Caller, which speaks it as requests over any
// proto.Exchanger — a wire client, a resilient peerlink.Link, a fault
// injector. Every method's error return maps to StatusUnknown semantics at
// the call site: the algorithm is fault-tolerant and starts jobs normally
// when a peer cannot be reached.
type Peer interface {
	// PeerName returns the remote domain's name.
	PeerName() string
	// GetMateJob reports whether the remote manager knows the job
	// (registered, queued, or finished) — Algorithm 1 line 2.
	GetMateJob(id job.ID) (bool, error)
	// GetMateStatus returns the mate's current status — line 4.
	GetMateStatus(id job.ID) (MateStatus, error)
	// CanStartMate probes whether TryStartMate would succeed, without
	// side effects. Used by the N-way extension to avoid partial group
	// starts.
	CanStartMate(id job.ID) (bool, error)
	// TryStartMate asks the remote manager to run one extra scheduling
	// iteration on behalf of the mate and start it if resources allow —
	// line 12. It returns true only if the mate is running afterwards.
	TryStartMate(id job.ID) (bool, error)
	// StartMate releases a holding mate into execution — line 8.
	StartMate(id job.ID) error
}

// CoStarter is an optional Peer extension carrying the co-start instant
// agreement: the caller that resolves a pair proposes the start instant
// (its own clock reading), and the callee records that instant as the
// mate's StartTime even though its own clock may have drifted a few
// milliseconds past it by the time the request arrives. In a shared-engine
// simulation the proposed instant always equals the callee's clock, so the
// extension is byte-identical to the plain calls; between live daemons it
// is what makes the paper's §V-B log check ("paired jobs start at the same
// time") hold exactly rather than within a wall-clock jitter tolerance.
// Callers fall back to TryStartMate/StartMate when a peer lacks it.
type CoStarter interface {
	// TryStartMateAt is TryStartMate with the caller's proposed co-start
	// instant.
	TryStartMateAt(id job.ID, at sim.Time) (bool, error)
	// StartMateAt is StartMate with the caller's proposed co-start
	// instant.
	StartMateAt(id job.ID, at sim.Time) error
}

// MateProbe is everything Run_Job asks about one mate before it decides,
// read from one snapshot of the remote manager.
type MateProbe struct {
	// Known is GetMateJob's answer (Algorithm 1 line 2).
	Known bool
	// Status is GetMateStatus's answer (line 4).
	Status MateStatus
	// CanStart is CanStartMate's answer. Run_Job reads it only for a
	// queuing or unsubmitted mate, and ProbeMate's three-call composition
	// asks for it only then; for any other status it may be left false.
	CanStart bool
}

// Prober is an optional Peer extension: the three read-only queries Run_Job
// makes back to back — GetMateJob, GetMateStatus, CanStartMate — answered
// in one call, so a wire peer costs one round trip per mate instead of
// three. The answers equal those of the three calls made at the same
// instant (nothing can change the remote state between them in a
// simulation; between live daemons one snapshot under the remote lock is
// the more consistent of the two). Implemented by resmgr.Manager and
// proto.Caller (proto.Server answers a probe_mate for any Peer); callers go
// through ProbeMate, which serves plain Peers too.
type Prober interface {
	ProbeMate(id job.ID) (MateProbe, error)
}

// ProbeMate gathers one mate's probe from p: through the Prober extension
// when p has it, otherwise by composing the three Peer queries the way
// Run_Job always has — an unknown job or an unknown status ends the
// exchange early, and CanStartMate is asked only of a mate that would have
// to be started (queuing or unsubmitted), where its failure means "cannot
// start now" rather than "peer unreachable". This is the only place that
// composition exists.
func ProbeMate(p Peer, id job.ID) (MateProbe, error) {
	if pr, ok := p.(Prober); ok {
		return pr.ProbeMate(id)
	}
	known, err := p.GetMateJob(id)
	if err != nil || !known {
		return MateProbe{}, err
	}
	st, err := p.GetMateStatus(id)
	if err != nil {
		return MateProbe{}, err
	}
	probe := MateProbe{Known: true, Status: st}
	if st == StatusQueuing || st == StatusUnsubmitted {
		ok, err := p.CanStartMate(id)
		probe.CanStart = err == nil && ok
	}
	return probe, nil
}

// MateView is one side's knowledge of one shared pair, exchanged during a
// ReconcileMates handshake. Local is the reporting domain's job, Mate the
// receiving domain's job, Status the reporter's view of its own job.
// Start carries the instant the local job started when Status is running
// or completed, so a recovering mate that lost its own start record can
// adopt the surviving side's instant and keep the pair's log byte-exact.
type MateView struct {
	Local  job.ID
	Mate   job.ID
	Status MateStatus
	Start  sim.Time
}

// Reconciler is the optional restart-reconciliation extension of the
// protocol: after a daemon recovers from a crash (or is draining on
// shutdown) it exchanges MateViews with each peer and both sides resolve
// orphans by the paper's fallback rules — a hold whose mate no longer
// knows the job is released back to the queue (it re-enters Run_Job), a
// hold whose mate is already running adopts the mate's start instant, and
// a hold facing a mate that also holds is co-started now by the caller.
// Implemented by resmgr.Manager and proto.Caller; discovered by type
// assertion so plain Peer implementations (tests, older tools) remain
// valid.
type Reconciler interface {
	// ReconcileMates reports the caller's views of every pair shared with
	// this domain (from is the caller's domain name) and returns this
	// domain's views of the same pairs, after applying any releases or
	// adoptions the caller's report implies. A view missing from the
	// request means the caller no longer knows the job — a receiver
	// holding for it must release.
	ReconcileMates(from string, views []MateView) ([]MateView, error)
}
