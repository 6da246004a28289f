package live

import (
	"maps"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cosched/internal/config"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// plannerStream is an unpaired job stream for a 40,960-node domain in which
// no two submissions or completions share an instant. It has two parts.
//
// In the first, two users build runtime histories — user 1 a short job,
// user 2 a longer one — before a large job of user 2 queues behind a running
// one of user 2, and a narrow job of user 1 with a long walltime arrives.
// The user-average estimator predicts user 1's job short enough to backfill
// at once; with one history for both users it predicts it too long and the
// job waits.
//
// In the second, user 3's two large jobs queue behind a running one, and a
// long narrow job arrives that EASY backfills at once — it delays only the
// second queued job, which EASY does not protect and conservative
// backfilling does.
func plannerStream() []*job.Job {
	spec := []struct {
		user              int
		submit            sim.Time
		nodes             int
		runtime, walltime sim.Duration
	}{
		{1, 0, 1000, 100, 4000},
		{2, 1, 1000, 400, 4000},
		{2, 500, 39000, 1000, 4000},
		{2, 510, 40000, 500, 1000},
		{1, 520, 1500, 200, 4000},

		{3, 5000, 30000, 1000, 1000},
		{3, 5010, 35000, 1000, 1000},
		{3, 5020, 38000, 1000, 1000},
		{3, 5030, 5000, 2500, 2500},
		{3, 5045, 2000, 290, 600},
		{3, 8333, 1000, 100, 200},
	}
	jobs := make([]*job.Job, len(spec))
	for i, s := range spec {
		jobs[i] = job.New(job.ID(i+1), s.nodes, s.submit, s.runtime, s.walltime)
		jobs[i].User = s.user
	}
	return jobs
}

// simulatedStarts runs jobs on domain d in the simulator and returns each
// job's start instant.
func simulatedStarts(t *testing.T, d config.Domain, jobs []*job.Job) map[job.ID]sim.Time {
	t.Helper()
	dc, err := d.DomainConfig(jobs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{dc}})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); res.StuckJobs != 0 {
		t.Fatalf("%d stuck jobs", res.StuckJobs)
	}
	starts := map[job.ID]sim.Time{}
	s.Manager(d.Name).EachJob(func(j *job.Job) {
		starts[j.ID] = j.StartTime
	})
	return starts
}

// TestDaemonSchedulesAsSimulator: a daemon started from a cmd/cosim domain
// — configs/smallpair.json's hpc, with conservative backfilling and the
// user-average estimator — starts every job of a stream submitted over
// admin at the instant the simulator starts it for the same domain. The
// stream starts a job elsewhere under EASY, and elsewhere again when every
// job is one user's, so a daemon that dropped the backfill mode or the
// submitting users would fail here.
func TestDaemonSchedulesAsSimulator(t *testing.T) {
	f, err := config.Load(filepath.Join("..", "..", "configs", "smallpair.json"))
	if err != nil {
		t.Fatal(err)
	}
	hpc := f.Domains[0]
	if hpc.Name != "hpc" || hpc.BackfillMode != "conservative" || hpc.Estimator != "user-average" {
		t.Fatalf("smallpair.json's first domain is %+v, want hpc with conservative backfilling and user-average estimates", hpc)
	}
	want := simulatedStarts(t, hpc, plannerStream())
	easy := hpc
	easy.BackfillMode = "easy"
	if maps.Equal(want, simulatedStarts(t, easy, plannerStream())) {
		t.Fatalf("the stream starts every job at the same instant under EASY (%v); it cannot tell the planners apart", want)
	}
	oneUser := plannerStream()
	for _, j := range oneUser {
		j.User = 0
	}
	if maps.Equal(want, simulatedStarts(t, hpc, oneUser)) {
		t.Fatalf("the stream starts every job at the same instant with one user (%v); it cannot tell the histories apart", want)
	}

	hpc.Synthetic = nil // a daemon's jobs arrive over admin
	clk := newStepClock()
	dom := startTestDomain(t, clk, Config{Domain: hpc, Speedup: 1})
	c, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var now sim.Time
	for _, j := range plannerStream() {
		clk.Advance(time.Duration(j.SubmitTime-now) * time.Second)
		now = j.SubmitTime
		if err := c.Submit(WireJob{ID: j.ID, User: j.User, Nodes: j.Nodes, Runtime: j.Runtime, Walltime: j.Walltime}); err != nil {
			t.Fatal(err)
		}
	}
	var last sim.Time
	for _, at := range want {
		last = max(last, at)
	}
	clk.Advance(time.Duration(last-now+1) * time.Second)
	for id, at := range want {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Started || st.StartTime != at {
			t.Errorf("job %d: %s, started=%v at %d; the simulator starts it at %d", id, st.State, st.Started, st.StartTime, at)
		}
	}
}

// TestDaemonRefusesTraceKeys: a daemon's jobs arrive over admin, so a
// domain naming a workload does not start, nor does one with queues, whose
// routing is computed from a trace; each error names the key.
func TestDaemonRefusesTraceKeys(t *testing.T) {
	for key, set := range map[string]func(*config.Domain){
		"queues":     func(d *config.Domain) { d.Queues = []config.QueueSpec{{Name: "prod", Default: true}} },
		"trace_file": func(d *config.Domain) { d.TraceFile = "jobs.swf" },
		"synthetic":  func(d *config.Domain) { d.Synthetic = &config.Synthetic{System: "eureka"} },
	} {
		cfg := Config{Domain: config.Domain{Name: "q", Nodes: 64}, Listen: "127.0.0.1:0", Admin: "127.0.0.1:0", Speedup: 1}
		set(&cfg.Domain)
		d, err := Start(cfg, nil)
		if err == nil {
			d.close()
			t.Fatalf("a domain with %s started", key)
		}
		if !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("%s: err = %v, want one naming the key", key, err)
		}
	}
}
