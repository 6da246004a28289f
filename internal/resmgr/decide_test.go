package resmgr

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// TestDecide feeds Algorithm 1's decision synthetic probes and checks the
// plan: no peer, no engine, no pool. Each row names the line of Algorithm 1
// (or the §IV-E2 rule, or the reservation-safety rule of DESIGN.md) it
// exercises.
func TestDecide(t *testing.T) {
	const (
		unknown   = cosched.StatusUnknown
		unsub     = cosched.StatusUnsubmitted
		queuing   = cosched.StatusQueuing
		holding   = cosched.StatusHolding
		running   = cosched.StatusRunning
		completed = cosched.StatusCompleted
		H, Y      = cosched.Hold, cosched.Yield
	)
	// probed is a mate whose peer answered; an unknown mate is one the peer
	// does not know (Known false, as ProbeMate answers it).
	probed := func(st cosched.MateStatus, canStart bool) mate {
		return mate{probe: cosched.MateProbe{Known: st != unknown, Status: st, CanStart: canStart}}
	}
	// failed is a mate whose probe errored; the answer it carries is ignored.
	failed := func(st cosched.MateStatus, canStart bool) mate {
		mt := probed(st, canStart)
		mt.err = errors.New("peer unreachable")
		return mt
	}
	knob := func(s cosched.Scheme, adjust ...func(*knobs)) knobs {
		k := knobs{cfg: cosched.DefaultConfig(s), holdSafe: true, charge: 10, total: 100, holdBudget: -1}
		for _, f := range adjust {
			f(&k)
		}
		return k
	}
	disabled := func(k *knobs) { k.cfg.Enabled = false }
	unsafe := func(k *knobs) { k.holdSafe = false }
	maxYields := func(n int) func(*knobs) { return func(k *knobs) { k.cfg.MaxYields = n } }
	heldCap := func(frac float64, held int) func(*knobs) {
		return func(k *knobs) { k.cfg.MaxHeldFraction, k.held = frac, held }
	}
	budget := func(n, holding int) func(*knobs) {
		return func(k *knobs) { k.holdBudget, k.holding = n, holding }
	}
	var (
		startNow   = plan{v: start}
		doHold     = plan{v: hold}
		doYield    = plan{v: yield}
		tryOrHold  = plan{coStart: true, v: hold}
		tryOrYield = plan{coStart: true, v: yield}
		none       = stepNone
		try        = stepTry
		rel        = stepRelease
	)
	for _, tc := range []struct {
		why    string
		k      knobs
		yields int // the job's YieldCount
		mates  []mate
		want   plan
		steps  []step
	}{
		// Lines 34–36: coscheduling disabled, or an unpaired job, starts normally.
		{"34-36 disabled", knob(H, disabled), 0, []mate{probed(queuing, false)}, startNow, []step{none}},
		{"34-36 unpaired", knob(H), 0, nil, startNow, nil},

		// Scheme × mate status. Lines 2 and 4 read the probe; lines 30–31:
		// an unknown mate starts the job normally; lines 25–26: a mate past
		// coordination (running, completed) imposes no constraint.
		{"30-31 hold, mate unknown", knob(H), 0, []mate{probed(unknown, false)}, startNow, []step{none}},
		{"30-31 yield, mate unknown", knob(Y), 0, []mate{probed(unknown, false)}, startNow, []step{none}},
		{"25-26 hold, mate running", knob(H), 0, []mate{probed(running, true)}, startNow, []step{none}},
		{"25-26 yield, mate running", knob(Y), 0, []mate{probed(running, true)}, startNow, []step{none}},
		{"25-26 hold, mate completed", knob(H), 0, []mate{probed(completed, false)}, startNow, []step{none}},
		{"25-26 yield, mate completed", knob(Y), 0, []mate{probed(completed, false)}, startNow, []step{none}},
		// Lines 7–8: a holding mate — start, then release it; the fallback
		// is never used (there is nothing to try).
		{"7-8 hold, mate holding", knob(H), 0, []mate{probed(holding, true)}, tryOrHold, []step{rel}},
		{"7-8 yield, mate holding", knob(Y), 0, []mate{probed(holding, true)}, tryOrYield, []step{rel}},
		// Lines 12 and 14: a queuing or unsubmitted mate that can start is
		// tried; a refused try falls back to lines 16–23.
		{"12-14 hold, mate queuing", knob(H), 0, []mate{probed(queuing, true)}, tryOrHold, []step{try}},
		{"12-14 yield, mate queuing", knob(Y), 0, []mate{probed(queuing, true)}, tryOrYield, []step{try}},
		{"12-14 hold, mate unsubmitted", knob(H), 0, []mate{probed(unsub, true)}, tryOrHold, []step{try}},
		{"12-14 yield, mate unsubmitted", knob(Y), 0, []mate{probed(unsub, true)}, tryOrYield, []step{try}},
		// Lines 16–23: a mate that cannot start now — hold or yield per the
		// local scheme, with no try sent.
		{"16-23 hold, mate queuing, cannot start", knob(H), 0, []mate{probed(queuing, false)}, doHold, []step{try}},
		{"16-23 yield, mate queuing, cannot start", knob(Y), 0, []mate{probed(queuing, false)}, doYield, []step{try}},
		{"16-23 hold, mate unsubmitted, cannot start", knob(H), 0, []mate{probed(unsub, false)}, doHold, []step{try}},
		{"16-23 yield, mate unsubmitted, cannot start", knob(Y), 0, []mate{probed(unsub, false)}, doYield, []step{try}},

		// Probe error: a failed exchange is fault tolerance's unknown
		// mate (lines 30–31), whatever the answer it carries.
		{"30-31 probe error on a holding answer", knob(H), 0, []mate{failed(holding, true)}, startNow, []step{none}},
		{"30-31 probe error on a queuing answer", knob(Y), 0, []mate{failed(queuing, false)}, startNow, []step{none}},

		// Reservation safety: a job that may not hold yields whatever the
		// scheme; a co-start plan keeps yield as its fallback.
		{"16-23 not hold-safe, hold scheme", knob(H, unsafe), 0, []mate{probed(queuing, false)}, doYield, []step{try}},
		{"16-23 not hold-safe, try falls back to yield", knob(H, unsafe), 0, []mate{probed(queuing, true)}, tryOrYield, []step{try}},
		{"7-8 not hold-safe, mate holding still co-starts", knob(H, unsafe), 0, []mate{probed(holding, true)}, tryOrYield, []step{rel}},

		// N-way: every mate that needs a try must probe startable before
		// any is tried; holders and unconstrained mates do not count.
		{"12-14 N-way, all startable", knob(H), 0,
			[]mate{probed(queuing, true), probed(holding, true), probed(unsub, true), probed(unknown, false)},
			tryOrHold, []step{try, rel, try, none}},
		{"16-23 N-way, one cannot start", knob(Y), 0,
			[]mate{probed(queuing, true), probed(holding, true), probed(unsub, false)},
			doYield, []step{try, rel, try}},
		{"25-26 N-way, nothing constrains", knob(H), 0,
			[]mate{probed(running, true), failed(queuing, true), probed(completed, false)},
			startNow, []step{none, none, none}},

		// §IV-E2 max yields: a job that yielded MaxYields times holds...
		{"IV-E2 max yields reached", knob(Y, maxYields(2)), 2, []mate{probed(queuing, false)}, doHold, []step{try}},
		{"IV-E2 max yields not reached", knob(Y, maxYields(2)), 1, []mate{probed(queuing, false)}, doYield, []step{try}},
		{"IV-E2 max yields off", knob(Y), 50, []mate{probed(queuing, false)}, doYield, []step{try}},
		{"IV-E2 max yields as a try's fallback", knob(Y, maxYields(1)), 1, []mate{probed(queuing, true)}, tryOrHold, []step{try}},
		// ...unless it may not hold at all: escalation cannot override
		// reservation safety.
		{"IV-E2 max yields reached, not hold-safe", knob(Y, unsafe, maxYields(1)), 1, []mate{probed(queuing, false)}, doYield, []step{try}},
		{"IV-E2 max yields reached, not hold-safe, hold scheme", knob(H, unsafe, maxYields(1)), 3, []mate{probed(unsub, false)}, doYield, []step{try}},

		// §IV-E2 held fraction: a hold that would push held nodes above the
		// cap yields; reaching the cap exactly is allowed.
		{"IV-E2 held fraction exceeded", knob(H, heldCap(0.5, 41)), 0, []mate{probed(queuing, false)}, doYield, []step{try}},
		{"IV-E2 held fraction reached exactly", knob(H, heldCap(0.5, 40)), 0, []mate{probed(queuing, false)}, doHold, []step{try}},
		{"IV-E2 held fraction caps an escalated hold", knob(Y, maxYields(1), heldCap(0.1, 1)), 1, []mate{probed(queuing, false)}, doYield, []step{try}},
		{"IV-E2 held fraction 0 means uncapped", knob(H, heldCap(0, 90)), 0, []mate{probed(queuing, false)}, doHold, []step{try}},

		// Degraded-mode hold budget: a hold past the budget yields and is
		// counted as refused; under the budget it holds.
		{"16-23 hold budget full", knob(H, budget(2, 2)), 0, []mate{probed(queuing, false)}, plan{v: yield, refused: true}, []step{try}},
		{"16-23 hold budget zero", knob(H, budget(0, 0)), 0, []mate{probed(queuing, false)}, plan{v: yield, refused: true}, []step{try}},
		{"16-23 hold budget has room", knob(H, budget(2, 1)), 0, []mate{probed(queuing, false)}, doHold, []step{try}},
		{"16-23 hold budget, try's fallback refused", knob(H, budget(1, 1)), 0, []mate{probed(queuing, true)}, plan{coStart: true, v: yield, refused: true}, []step{try}},
		{"16-23 hold budget never refuses a yield", knob(Y, budget(0, 0)), 0, []mate{probed(queuing, false)}, doYield, []step{try}},
	} {
		t.Run(tc.why, func(t *testing.T) {
			j := job.New(1, 10, 0, 600, 600)
			j.YieldCount = tc.yields
			for i := range tc.mates {
				j.Mates = append(j.Mates, job.MateRef{Domain: fmt.Sprint("D", i), Job: job.ID(100 + i)})
				tc.mates[i].ref = j.Mates[i]
			}
			if got := decide(j, &tc.k, tc.mates); got != tc.want {
				t.Errorf("plan = %+v, want %+v", got, tc.want)
			}
			var steps []step
			for _, mt := range tc.mates {
				steps = append(steps, mt.step)
			}
			if !slices.Equal(steps, tc.steps) {
				t.Errorf("steps = %v, want %v", steps, tc.steps)
			}
		})
	}
}

// TestApplyAcceptsTakenNodes: apply runs on node state that may have
// changed since the decision (Iterate plans once, then runs several jobs).
// A start or a hold whose nodes were taken in between leaves the job
// queued, fires no observer event and does not move the iteration's
// outcome.
func TestApplyAcceptsTakenNodes(t *testing.T) {
	for _, v := range []verdict{start, hold} {
		var log []string
		m := New(sim.NewEngine(), Options{Name: "A", Pool: cluster.New("A", 100),
			Cosched: cosched.DefaultConfig(cosched.Hold), Observer: recordingObserver{"A", &log}})
		j := job.New(1, 50, 0, 600, 600)
		if err := m.Submit(j); err != nil {
			t.Fatal(err)
		}
		// The plan saw 100 free nodes; an earlier start took 60 of them.
		if _, err := m.pool.Allocate(0, 60, cluster.AllocRun); err != nil {
			t.Fatal(err)
		}
		log = log[:0]
		m.outcome = IterPlannedNothing
		if err := m.apply(j, v, 0, 0); err != nil {
			t.Fatalf("verdict %d: apply: %v", v, err)
		}
		if j.State != job.Queued || m.Counts().Queued != 1 || m.pool.Free() != 40 || m.pool.Held() != 0 {
			t.Errorf("verdict %d: job %s, queue %d, %s; want the job still queued", v, j.State, m.Counts().Queued, m.pool)
		}
		if len(log) != 0 {
			t.Errorf("verdict %d: observer saw %v, want nothing", v, log)
		}
		if m.outcome != IterPlannedNothing {
			t.Errorf("verdict %d: outcome %s, want %s", v, m.outcome, IterPlannedNothing)
		}
	}
}
