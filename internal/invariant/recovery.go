package invariant

import (
	"fmt"
	"sort"

	"cosched/internal/job"
	"cosched/internal/resmgr"
)

// RecoveryViolations checks a freshly restored manager against the job
// states the journal replay produced. It is the post-recovery counterpart
// of the Auditor's per-event checks:
//
//   - no lost job: every replayed job is known to the manager, in the
//     replayed state, with the replayed start time — nothing the journal
//     proved durable may vanish or drift across the restart;
//   - no invented job: the manager knows nothing the replay didn't produce
//     (a double restore would also trip ErrDuplicateJob, but a bug that
//     fabricates jobs some other way lands here);
//   - no double start: at most one restored job record per ID, and the
//     manager's running/holding/queue/terminal counters match a scan of
//     the restored states, so a job cannot occupy two sets at once;
//   - node conservation: pool occupancy equals the node sum of restored
//     running and holding jobs, so re-acquired allocations neither leak
//     nor double-book capacity.
//
// The returned slice is empty on a sound recovery.
func RecoveryViolations(m *resmgr.Manager, want []*job.Job) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", m.Name(), fmt.Sprintf(format, args...)))
	}

	seen := make(map[job.ID]*job.Job, len(want))
	var queued, holding, running, completed, cancelled int
	var runNodes, heldNodes int
	for _, w := range want {
		if _, dup := seen[w.ID]; dup {
			fail("job %d restored twice (double start hazard)", w.ID)
			continue
		}
		seen[w.ID] = w
		got, ok := m.Job(w.ID)
		if !ok {
			fail("job %d lost in recovery: replayed as %s, unknown to the manager", w.ID, w.State)
			continue
		}
		if got.State != w.State {
			fail("job %d state drifted in recovery: replayed %s, manager has %s", w.ID, w.State, got.State)
		}
		if got.StartTime != w.StartTime {
			fail("job %d start time drifted in recovery: replayed %d, manager has %d", w.ID, w.StartTime, got.StartTime)
		}
		switch w.State {
		case job.Queued:
			queued++
		case job.Holding:
			holding++
			heldNodes += w.Nodes
		case job.Running:
			running++
			runNodes += w.Nodes
		case job.Completed:
			completed++
		case job.Cancelled:
			cancelled++
		}
	}
	ids := make([]job.ID, 0)
	m.EachJob(func(j *job.Job) {
		if _, ok := seen[j.ID]; !ok {
			ids = append(ids, j.ID)
		}
	})
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		fail("job %d invented in recovery: manager knows it, replay does not", id)
	}

	c := m.Counts()
	if c.Queued != queued {
		fail("queue length %d after restore, want %d", c.Queued, queued)
	}
	if c.Holding != holding {
		fail("holding count %d after restore, want %d", c.Holding, holding)
	}
	if c.RunningJobs != running {
		fail("running count %d after restore, want %d", c.RunningJobs, running)
	}
	if c.Completed != completed {
		fail("completed count %d after restore, want %d", c.Completed, completed)
	}
	if c.Cancelled != cancelled {
		fail("cancelled count %d after restore, want %d", c.Cancelled, cancelled)
	}
	pool := m.Pool()
	if got := pool.Running(); got != runNodes {
		fail("pool running nodes %d after restore, want %d (no lost or doubled run allocation)", got, runNodes)
	}
	if got := pool.Held(); got != heldNodes {
		fail("pool held nodes %d after restore, want %d (no lost or doubled hold allocation)", got, heldNodes)
	}
	return out
}

// VerifyRecovery returns RecoveryViolations and, under -tags debug, fails
// fast on the first one — a daemon must not start scheduling on top of a
// provably inconsistent restore in the hardened build.
func VerifyRecovery(m *resmgr.Manager, want []*job.Job) []string {
	v := RecoveryViolations(m, want)
	if len(v) > 0 {
		debugFatal(v[0])
	}
	return v
}
