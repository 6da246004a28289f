// Command cosubmit submits an associated job pair (or N-way group) to
// running coschedd daemons and waits until every member starts, reporting
// the co-start.
//
// Usage (two daemons from the coschedd example):
//
//	cosubmit -job intrepid=localhost:7101:512:600 \
//	         -job eureka=localhost:7102:4:600 -wait
//
// Each -job flag is domain=adminAddr:nodes:runtimeSeconds, one per domain.
// All submitted jobs are linked into one co-start group.
//
// A daemon answers a submit after the job's first scheduling decision, peer
// exchanges included, so the members are submitted one after another: each
// but the last holds (or yields) for its mates, and, when every member
// fits, the last submit co-starts the group before it returns. -wait then
// confirms the instants.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cosched/internal/job"
	"cosched/internal/live"
)

// memberSpec is one parsed -job flag.
type memberSpec struct {
	domain  string
	addr    string
	nodes   int
	runtime int64
}

type memberFlags []memberSpec

func (m *memberFlags) String() string { return fmt.Sprintf("%v", []memberSpec(*m)) }

func (m *memberFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want domain=addr:nodes:runtime, got %q", v)
	}
	// One member per domain: the job ID is shared, so a second member on a
	// domain would be taken as a repeat of the first.
	for _, prev := range *m {
		if prev.domain == name {
			return fmt.Errorf("domain %q given twice", name)
		}
	}
	parts := strings.Split(rest, ":")
	if len(parts) != 4 && len(parts) != 3 {
		return fmt.Errorf("want addr:nodes:runtime after %q=", name)
	}
	// addr may itself contain a colon (host:port): re-join all but the
	// last two segments.
	nodes, err := strconv.Atoi(parts[len(parts)-2])
	if err != nil {
		return fmt.Errorf("bad node count in %q: %w", v, err)
	}
	runtime, err := strconv.ParseInt(parts[len(parts)-1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad runtime in %q: %w", v, err)
	}
	*m = append(*m, memberSpec{
		domain:  name,
		addr:    strings.Join(parts[:len(parts)-2], ":"),
		nodes:   nodes,
		runtime: runtime,
	})
	return nil
}

func main() {
	var members memberFlags
	var (
		id      = flag.Int64("id", time.Now().Unix()%1_000_000, "job ID used on every domain")
		wait    = flag.Bool("wait", false, "poll until every member starts")
		poll    = flag.Duration("poll", 500*time.Millisecond, "status poll interval with -wait")
		timeout = flag.Duration("timeout", 10*time.Minute, "give up waiting after this long")
	)
	flag.Var(&members, "job", "group member as domain=adminAddr:nodes:runtimeSeconds (repeatable, one per domain)")
	flag.Parse()
	if len(members) < 2 {
		fmt.Fprintln(os.Stderr, "cosubmit: need at least two -job members to coschedule")
		os.Exit(2)
	}

	clients := make([]*live.AdminClient, len(members))
	for i, m := range members {
		c, err := live.DialAdmin(m.addr, 5*time.Second)
		if err != nil {
			fatal(fmt.Errorf("dial %s (%s): %w", m.domain, m.addr, err))
		}
		defer c.Close()
		clients[i] = c
	}

	// Link every member to every other.
	wire := make([]live.WireJob, len(members))
	for i, m := range members {
		var mates []job.MateRef
		for k, other := range members {
			if k != i {
				mates = append(mates, job.MateRef{Domain: other.domain, Job: job.ID(*id)})
			}
		}
		wire[i] = live.WireJob{
			ID:       job.ID(*id),
			Name:     fmt.Sprintf("cosubmit-%d", *id),
			Nodes:    m.nodes,
			Runtime:  m.runtime,
			Walltime: m.runtime,
			Mates:    mates,
		}
	}
	// Co-submission protocol: declare every member everywhere first, so no
	// half ever observes its mate as "unknown" (which would trigger the
	// fault-tolerant uncoordinated start), then submit. Each submit returns
	// once its daemon has decided for the member.
	for i, m := range members {
		if err := clients[i].Expect(wire[i]); err != nil {
			fatal(fmt.Errorf("declare to %s: %w", m.domain, err))
		}
	}
	for i, m := range members {
		if err := clients[i].Submit(wire[i]); err != nil {
			fatal(fmt.Errorf("submit to %s: %w", m.domain, err))
		}
		fmt.Printf("submitted job %d to %s (%d nodes, %ds)\n", *id, m.domain, m.nodes, m.runtime)
	}
	if !*wait {
		return
	}

	deadline := time.Now().Add(*timeout)
	for {
		allStarted := true
		starts := make([]int64, len(members))
		for i := range members {
			st, err := clients[i].Status(job.ID(*id))
			if err != nil {
				fatal(fmt.Errorf("status from %s: %w", members[i].domain, err))
			}
			if !st.Started {
				allStarted = false
				break
			}
			starts[i] = st.StartTime
		}
		if allStarted {
			fmt.Printf("all %d members started:\n", len(members))
			same := true
			for i, m := range members {
				fmt.Printf("  %-10s start at virtual t=%d\n", m.domain, starts[i])
				if starts[i] != starts[0] {
					same = false
				}
			}
			if same {
				fmt.Println("CO-START ACHIEVED: identical start instants")
			} else {
				fmt.Println("note: start instants differ (live wall-clock skew between daemons)")
			}
			return
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("timed out after %v waiting for co-start", *timeout))
		}
		time.Sleep(*poll)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cosubmit: %v\n", err)
	os.Exit(1)
}
