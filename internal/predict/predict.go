// Package predict implements runtime estimation for backfill planning.
//
// EASY backfilling plans with requested walltimes, which users overestimate
// by 2–3×; Tsafrir, Etsion & Feitelson (TPDS 2007, the paper's [31]) showed
// that replacing them with system-generated predictions — the average of
// the same user's recent actual runtimes — tightens the shadow-time
// estimate and improves both wait times and backfill accuracy. The resource
// manager consults an Estimator when building its release profile and
// backfill candidates; RunAblations (cmd/experiments -exp ablations)
// quantifies the effect.
package predict

import (
	"cosched/internal/job"
	"cosched/internal/sim"
)

// Estimator supplies the planning runtime for a job. Implementations must
// never return a value above the job's walltime (the scheduler kills at
// walltime) or below 1.
type Estimator interface {
	// Name identifies the estimator in configs and bench labels.
	Name() string
	// Estimate returns the planning runtime for a queued or running job.
	Estimate(j *job.Job) sim.Duration
	// Observe records a completed job's actual runtime.
	Observe(j *job.Job)
}

// Stable marks estimators whose Estimate for a given job is a pure
// function of the job's immutable request fields: Observe never changes
// what Estimate returns. The resource manager's incremental core relies on
// this to cache a running job's planned release time at start instead of
// re-querying the estimator every scheduling iteration. Walltime qualifies;
// UserAverage (whose history shifts with every completion) must not
// implement this interface.
type Stable interface {
	// StableEstimates reports that Estimate(j) is constant over j's
	// lifetime for every job j.
	StableEstimates() bool
}

// IsStable reports whether e declares stable estimates.
func IsStable(e Estimator) bool {
	s, ok := e.(Stable)
	return ok && s.StableEstimates()
}

// Walltime is the classic estimator: trust the user's request.
type Walltime struct{}

// Name implements Estimator.
func (Walltime) Name() string { return "walltime" }

// StableEstimates implements Stable: the walltime never changes.
func (Walltime) StableEstimates() bool { return true }

// Estimate implements Estimator.
func (Walltime) Estimate(j *job.Job) sim.Duration { return j.Walltime }

// Observe implements Estimator.
func (Walltime) Observe(*job.Job) {}

// UserAverage is the Tsafrir-style predictor: the average of the user's
// last Window actual runtimes, padded by Pad and clamped to [1, walltime].
// Jobs from users with no history fall back to the walltime.
//
// The pad absorbs within-user variability: an unpadded average
// underpredicts about half the jobs, and each underprediction lets a
// backfilled job overrun its promise and delay the protected head job —
// Tsafrir et al. counter the same effect with prediction correction and
// padding.
type UserAverage struct {
	// Window is how many recent runtimes to average (Tsafrir used 2).
	Window int
	// Pad multiplies the average (default 1.5).
	Pad float64

	history map[int][]sim.Duration
}

// NewUserAverage returns a predictor averaging the last window runtimes
// per user (window ≤ 0 defaults to 2) with the default 1.5× pad.
func NewUserAverage(window int) *UserAverage {
	if window <= 0 {
		window = 2
	}
	return &UserAverage{Window: window, Pad: 1.5, history: make(map[int][]sim.Duration)}
}

// Name implements Estimator.
func (u *UserAverage) Name() string { return "user-average" }

// Estimate implements Estimator.
func (u *UserAverage) Estimate(j *job.Job) sim.Duration {
	h := u.history[j.User]
	if len(h) == 0 {
		return j.Walltime
	}
	var sum sim.Duration
	for _, r := range h {
		sum += r
	}
	pad := u.Pad
	if pad <= 0 {
		pad = 1.5
	}
	est := sim.Duration(pad * float64(sum) / float64(len(h)))
	if est < 1 {
		est = 1
	}
	if est > j.Walltime {
		est = j.Walltime
	}
	return est
}

// Observe implements Estimator.
func (u *UserAverage) Observe(j *job.Job) {
	h := append(u.history[j.User], j.Runtime)
	if len(h) > u.Window {
		h = h[len(h)-u.Window:]
	}
	u.history[j.User] = h
}

// Users returns how many distinct users have history.
func (u *UserAverage) Users() int { return len(u.history) }

// ByName resolves an estimator name ("", "walltime", "user-average").
func ByName(name string) (Estimator, bool) {
	switch name {
	case "", "walltime":
		return Walltime{}, true
	case "user-average":
		return NewUserAverage(2), true
	default:
		return nil, false
	}
}
