package invariant

import (
	"fmt"
	"sort"
	"strings"

	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// Monitor correlates job state across every registered scheduling domain
// and detects the paper's HH deadlock (Fig. 2) as it forms: each domain
// is mutually exclusive and non-preemptive, a holding job holds nodes
// while waiting for its mate (hold-and-wait), so the one condition left
// to detect is the circular wait. The monitor rebuilds the cross-domain
// wait-for graph at every observed lifecycle event:
//
//	holding job h (domain A)  →  every holding job of domain B
//
// whenever h's mate in B is still queued and B's pool cannot allocate it
// — h cannot start until B's holders give nodes back. A cycle in this
// graph is a circular wait, recorded at the event where it closes.
//
// The release-interval enhancement (§IV-E1) promises that every such
// cycle is transient: the release scan returns all held nodes no later
// than HoldStart + ReleaseInterval, so a cycle observed to outlive the
// largest ReleaseInterval among its domains is a broken enhancement and
// is recorded as a violation (and panics under -tags debug). When any
// involved domain runs with the enhancement disabled a cycle is a true
// deadlock by design, so it stays a detection only — tests assert on it
// directly.
type Monitor struct {
	resmgr.NullObserver // expectations and peer decisions trigger no scan

	domains map[string]*resmgr.Manager
	order   []string

	active     map[string]*cycleState
	detections []Cycle
	violations []string
	scans      int
}

// Cycle is one detected circular wait.
type Cycle struct {
	// Nodes are the participating holding jobs as "domain/jobID" strings,
	// sorted — the canonical form used to track cycle identity.
	Nodes []string
	// Start is the event time at which the cycle was first observed.
	Start sim.Time
}

// cycleState tracks one live cycle between scans.
type cycleState struct {
	start    sim.Time
	violated bool
}

// NewMonitor returns an empty monitor; Register each domain, and make the
// monitor an observer of every one (through resmgr.Tee beside other
// observers) so every lifecycle event triggers a scan.
func NewMonitor() *Monitor {
	return &Monitor{
		domains: make(map[string]*resmgr.Manager),
		active:  make(map[string]*cycleState),
	}
}

// Register adds one domain to the wait-for graph. Registration order is
// the deterministic scan order.
func (mon *Monitor) Register(mgr *resmgr.Manager) {
	name := mgr.Name()
	if _, dup := mon.domains[name]; !dup {
		mon.order = append(mon.order, name)
	}
	mon.domains[name] = mgr
}

// Detections returns every cycle ever observed, in detection order.
func (mon *Monitor) Detections() []Cycle { return mon.detections }

// Violations returns the cycles that outlived the release-interval
// guarantee, formatted like Auditor violations.
func (mon *Monitor) Violations() []string { return mon.violations }

// Scans returns how many wait-for-graph scans have run.
func (mon *Monitor) Scans() int { return mon.scans }

// scan rebuilds the cross-domain wait-for graph and reconciles the set of
// live cycles against the previously observed ones.
func (mon *Monitor) scan(now sim.Time) {
	mon.scans++
	adj := mon.waitForGraph()
	seen := make(map[string]bool)
	for _, nodes := range cycleComponents(adj) {
		key := strings.Join(nodes, ",")
		seen[key] = true
		st := mon.active[key]
		if st == nil {
			st = &cycleState{start: now}
			mon.active[key] = st
			mon.detections = append(mon.detections, Cycle{Nodes: nodes, Start: now})
		}
		interval, enhanced := mon.releaseBound(nodes)
		if enhanced && now > st.start+interval && !st.violated {
			st.violated = true
			v := fmt.Sprintf("t=%d circular wait [%s] outlived the release interval %d (formed t=%d): the §IV-E1 enhancement failed to break it",
				now, key, interval, st.start)
			mon.violations = append(mon.violations, v)
			debugFatal(v)
		}
	}
	for key := range mon.active {
		if !seen[key] {
			delete(mon.active, key)
		}
	}
}

// waitForGraph builds the adjacency map in deterministic order: domains
// in registration order, holders sorted by job ID, mates in declaration
// order. The holders come from each manager's live jobs, so a scan costs
// what is in flight, not every job ever registered.
func (mon *Monitor) waitForGraph() map[string][]string {
	holders := make(map[string][]*job.Job, len(mon.order))
	for _, name := range mon.order {
		var hs []*job.Job
		mon.domains[name].EachLive(func(j *job.Job) {
			if j.State == job.Holding {
				hs = append(hs, j)
			}
		})
		sort.Slice(hs, func(a, b int) bool { return hs[a].ID < hs[b].ID })
		holders[name] = hs
	}
	adj := make(map[string][]string)
	for _, name := range mon.order {
		for _, h := range holders[name] {
			from := name + "/" + fmt.Sprint(h.ID)
			for _, ref := range h.Mates {
				remote, ok := mon.domains[ref.Domain]
				if !ok {
					continue // unregistered domain: outside the audited system
				}
				mate, ok := remote.Job(ref.Job)
				if !ok || mate.State != job.Queued || remote.Pool().CanAllocate(mate.Nodes) {
					continue // mate not blocked on held capacity
				}
				for _, b := range holders[ref.Domain] {
					adj[from] = append(adj[from], ref.Domain+"/"+fmt.Sprint(b.ID))
				}
			}
		}
	}
	return adj
}

// releaseBound returns the largest ReleaseInterval among the cycle's
// domains and whether every one of them has the enhancement enabled.
func (mon *Monitor) releaseBound(nodes []string) (sim.Duration, bool) {
	var bound sim.Duration
	for _, n := range nodes {
		name, _, _ := strings.Cut(n, "/")
		iv := mon.domains[name].Config().ReleaseInterval
		if iv <= 0 {
			return 0, false
		}
		if iv > bound {
			bound = iv
		}
	}
	return bound, true
}

// cycleComponents returns the strongly connected components of size ≥ 2
// (every edge crosses domains, so self-loops cannot occur), each sorted
// into canonical form, ordered deterministically by their first node.
func cycleComponents(adj map[string][]string) [][]string {
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	t := &tarjan{adj: adj, index: make(map[string]int), low: make(map[string]int), on: make(map[string]bool)}
	for _, k := range keys {
		if _, visited := t.index[k]; !visited {
			t.strongconnect(k)
		}
	}
	var out [][]string
	for _, scc := range t.sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		out = append(out, scc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// tarjan is a standard recursive Tarjan SCC pass; wait-for graphs are a
// handful of nodes, so recursion depth is never a concern.
type tarjan struct {
	adj   map[string][]string
	index map[string]int
	low   map[string]int
	on    map[string]bool
	stack []string
	next  int
	sccs  [][]string
}

func (t *tarjan) strongconnect(v string) {
	t.index[v] = t.next
	t.low[v] = t.next
	t.next++
	t.stack = append(t.stack, v)
	t.on[v] = true
	for _, w := range t.adj[v] {
		if _, visited := t.index[w]; !visited {
			t.strongconnect(w)
			if t.low[w] < t.low[v] {
				t.low[v] = t.low[w]
			}
		} else if t.on[w] && t.index[w] < t.low[v] {
			t.low[v] = t.index[w]
		}
	}
	if t.low[v] != t.index[v] {
		return
	}
	var scc []string
	for {
		w := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.on[w] = false
		scc = append(scc, w)
		if w == v {
			break
		}
	}
	t.sccs = append(t.sccs, scc)
}

var _ resmgr.Observer = (*Monitor)(nil)

// The lifecycle notifications each run one scan; the monitor reads job
// state from the registered managers, not from the event.
func (mon *Monitor) JobSubmitted(now sim.Time, _ *job.Job)        { mon.scan(now) }
func (mon *Monitor) JobStarted(now sim.Time, _ *job.Job)          { mon.scan(now) }
func (mon *Monitor) JobCompleted(now sim.Time, _ *job.Job)        { mon.scan(now) }
func (mon *Monitor) JobHeld(now sim.Time, _ *job.Job)             { mon.scan(now) }
func (mon *Monitor) JobYielded(now sim.Time, _ *job.Job)          { mon.scan(now) }
func (mon *Monitor) JobReleased(now sim.Time, _ *job.Job, _ bool) { mon.scan(now) }
func (mon *Monitor) JobCancelled(now sim.Time, _ *job.Job)        { mon.scan(now) }
