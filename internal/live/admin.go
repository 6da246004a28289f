package live

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"time"

	"cosched/internal/job"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// Admin ops.
const (
	OpSubmit = "submit"
	OpExpect = "expect"
	OpStatus = "status"
	OpCancel = "cancel"
	OpInfo   = "info"
)

// AdminRequest is one admin call to a live daemon, framed like the peer
// protocol's calls (proto.WriteFrame) and, like them, written and read by a
// hand-written codec (codec.go) inside encoding/json's definition.
type AdminRequest struct {
	Seq   uint64   `json:"seq"`
	Op    string   `json:"op"`
	Job   *WireJob `json:"job,omitempty"`
	JobID job.ID   `json:"job_id,omitempty"`
}

// WireJob carries a submission over the admin interface.
type WireJob struct {
	ID       job.ID        `json:"id"`
	Name     string        `json:"name,omitempty"`
	User     int           `json:"user,omitempty"` // runtime-prediction history key, as job.Job.User
	Nodes    int           `json:"nodes"`
	Runtime  sim.Duration  `json:"runtime_seconds"`
	Walltime sim.Duration  `json:"walltime_seconds"`
	Mates    []job.MateRef `json:"mates,omitempty"`
}

// AdminResponse answers an AdminRequest.
type AdminResponse struct {
	Seq   uint64 `json:"seq"`
	Error string `json:"error,omitempty"`

	// status / submit
	State     string   `json:"state,omitempty"`
	StartTime sim.Time `json:"start_time,omitempty"`
	Started   bool     `json:"started,omitempty"`

	// info
	Domain     string   `json:"domain,omitempty"`
	Nodes      int      `json:"nodes,omitempty"`
	Free       int      `json:"free,omitempty"`
	VirtualNow sim.Time `json:"virtual_now,omitempty"`
}

// AdminServer exposes submission and status queries for a live daemon.
type AdminServer struct {
	mgr    *resmgr.Manager
	driver *Driver
	logger *log.Logger
	acc    proto.Acceptor
	// submit is submitJob, bound once: every submission schedules it with
	// its job as the argument instead of a closure of its own.
	submit sim.ArgHandler
}

// NewAdminServer wraps a manager and its driver.
func NewAdminServer(mgr *resmgr.Manager, driver *Driver, logger *log.Logger) *AdminServer {
	s := &AdminServer{mgr: mgr, driver: driver, logger: logger}
	s.submit = s.submitJob
	return s
}

// Listen starts accepting admin connections.
func (s *AdminServer) Listen(addr string) (net.Addr, error) {
	return s.acc.Listen(addr, s.logger, s.serveConn)
}

// serveConn answers admin calls on conn until EOF or error; the acceptor
// closes conn.
func (s *AdminServer) serveConn(conn net.Conn) {
	frames := proto.NewFrameReader(conn)
	// One decode scratch and one response for the connection's life, reset
	// per frame: passing their addresses on moves them to the heap once.
	var scratch adminScratch
	var resp AdminResponse
	for {
		payload, err := frames.Next()
		if err == nil {
			err = scratch.decode(payload)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && s.logger != nil {
				s.logger.Printf("admin: read: %v", err)
			}
			return
		}
		resp = s.dispatch(scratch.req)
		if err := proto.WriteFrame(conn, &resp); err != nil {
			return
		}
	}
}

func (s *AdminServer) dispatch(req AdminRequest) AdminResponse {
	resp := AdminResponse{Seq: req.Seq}
	switch req.Op {
	case OpInfo:
		s.driver.Do(func() {
			c := s.mgr.Counts()
			resp.Domain = s.mgr.Name()
			resp.Nodes, resp.Free = c.Nodes, c.Free
			resp.VirtualNow = s.driver.virtualNowLocked()
		})
	case OpExpect:
		// Pre-register a job that a co-submission tool will submit here
		// shortly; until then peers asking about it see "unsubmitted"
		// rather than "unknown", so their halves of the pair wait instead
		// of falling back to an uncoordinated start.
		if req.Job == nil {
			resp.Error = "expect: missing job"
			break
		}
		w := req.Job
		s.driver.Do(func() {
			// Idempotent for the same job: the answer is its state.
			j, err := s.admit(OpExpect, w)
			if err != nil {
				resp.Error = err.Error()
				return
			}
			resp.State = j.State.String()
		})
	case OpSubmit:
		if req.Job == nil {
			resp.Error = "submit: missing job"
			break
		}
		w := req.Job
		s.driver.Do(func() {
			j, err := s.admit(OpSubmit, w)
			if err == nil && j.State != job.Unsubmitted {
				err = fmt.Errorf("job %d already %s", w.ID, j.State)
			}
			if err != nil {
				resp.Error = err.Error()
				return
			}
			// Land the submission at the wall-clock's virtual instant so
			// wait-time accounting is correct even while the engine idles.
			at := s.driver.virtualNowLocked()
			if now := s.mgr.Engine().Now(); at < now {
				at = now
			}
			j.SubmitTime = at
			if _, err := s.mgr.Engine().AtArg(at, sim.PrioritySubmit, s.submit, j); err != nil {
				resp.Error = err.Error()
				return
			}
			// The job's first decision runs here, exchanges and all, and the
			// answer names the state it left: queued, holding or running.
			s.driver.fireDueLocked()
			resp.State = j.State.String()
		})
	case OpCancel:
		s.driver.Do(func() {
			if err := s.mgr.Cancel(req.JobID); err != nil {
				resp.Error = err.Error()
				return
			}
			// The iteration the cancel requests starts what the freed nodes
			// fit before the answer goes out.
			s.driver.fireDueLocked()
			resp.State = job.Cancelled.String()
		})
	case OpStatus:
		s.driver.Do(func() {
			j, ok := s.mgr.Job(req.JobID)
			if !ok {
				resp.Error = fmt.Sprintf("unknown job %d", req.JobID)
				return
			}
			resp.State = j.State.String()
			resp.StartTime = j.StartTime
			resp.Started = j.State == job.Running || j.State == job.Completed
		})
	default:
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
	}
	return resp
}

// expect registers an admin submission with the manager as a job yet to be
// submitted; the manager refuses one wider than the pool (resmgr.ErrTooWide).
// The job gets a copy of w's mates: w is the connection's decode scratch,
// which the next frame overwrites.
func (s *AdminServer) expect(w *WireJob) (*job.Job, error) {
	j := job.New(w.ID, w.Nodes, 0, w.Runtime, w.Walltime)
	j.Name, j.User = w.Name, w.User
	j.Mates = append([]job.MateRef(nil), w.Mates...)
	return j, s.mgr.Expect(j)
}

// admit returns the job w names, registering it through expect if the
// manager has never heard of it. A known job whose shape differs from w's
// is refused, naming the job and the first field that differs: the daemon
// would otherwise run the shape it has, not the one op just sent.
func (s *AdminServer) admit(op string, w *WireJob) (*job.Job, error) {
	j, ok := s.mgr.Job(w.ID)
	if !ok {
		return s.expect(w)
	}
	var field string
	var have, sent any
	switch {
	case j.User != w.User:
		field, have, sent = "user", j.User, w.User
	case j.Nodes != w.Nodes:
		field, have, sent = "nodes", j.Nodes, w.Nodes
	case j.Runtime != w.Runtime:
		field, have, sent = "runtime", j.Runtime, w.Runtime
	case j.Walltime != max(w.Walltime, w.Runtime): // as job.New sets it
		field, have, sent = "walltime", j.Walltime, w.Walltime
	case !slices.Equal(j.Mates, w.Mates):
		field, have, sent = "mates", j.Mates, w.Mates
	default:
		return j, nil
	}
	return nil, fmt.Errorf("%s: job %d %s %v differs from the %v it was expected with", op, j.ID, field, sent, have)
}

// submitJob is the submit event: it queues the job an admin submit
// registered.
func (s *AdminServer) submitJob(_ sim.Time, arg any) {
	j := arg.(*job.Job)
	if err := s.mgr.Submit(j); err != nil && s.logger != nil {
		s.logger.Printf("admin: submit job %d: %v", j.ID, err)
	}
}

// Close shuts the listener and connections down.
func (s *AdminServer) Close() error { return s.acc.Close() }

// AdminClient is the dial side of the admin interface.
type AdminClient struct {
	mu     sync.Mutex
	conn   net.Conn
	frames *proto.FrameReader // buffered reads of conn
	seq    uint64
	// timeout bounds each round trip; 0 means no deadline.
	timeout time.Duration
	// The frames of the call in progress, and the job a submit or expect
	// carries (req.Job points at it): fields, so that handing their
	// addresses to the framing does not allocate per call.
	req  AdminRequest
	job  WireJob
	resp AdminResponse
}

// DialAdmin connects to a daemon's admin port. timeout bounds both the TCP
// connect and each round trip (the contract of proto.Dial), so a daemon
// that accepted the connection and stopped answering fails the call
// instead of parking the caller.
func DialAdmin(addr string, timeout time.Duration) (*AdminClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &AdminClient{conn: conn, frames: proto.NewFrameReader(conn), timeout: timeout}, nil
}

// Close closes the connection.
func (c *AdminClient) Close() error { return c.conn.Close() }

// call makes one round trip of op about job id, carrying a copy of w
// unless w is nil.
func (c *AdminClient) call(op string, id job.ID, w *WireJob) (AdminResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.req, c.resp = AdminRequest{Seq: c.seq, Op: op, JobID: id}, AdminResponse{}
	if w != nil {
		c.job = *w
		c.req.Job = &c.job
	}
	var err error
	if c.timeout > 0 {
		err = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err == nil {
		err = proto.WriteFrame(c.conn, &c.req)
	}
	if err == nil {
		err = c.frames.ReadFrame(&c.resp)
	}
	if err != nil {
		// The exchange died part-way: its response may still arrive and
		// would pair with the next request, so the connection is retired
		// and later calls fail fast.
		c.conn.Close()
		return AdminResponse{}, err
	}
	resp := c.resp
	if resp.Seq != c.seq {
		// A late answer to an earlier request: every later response on this
		// connection would be off by one too, so the connection is retired.
		c.conn.Close()
		return AdminResponse{}, fmt.Errorf("admin: sequence mismatch: sent %d, got %d", c.seq, resp.Seq)
	}
	if resp.Error != "" {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// Info fetches daemon state.
func (c *AdminClient) Info() (AdminResponse, error) {
	return c.call(OpInfo, 0, nil)
}

// Submit sends a job. The daemon answers once it has made the job's first
// scheduling decision (a co-start or a hold included, with the peer
// exchanges they take), so the call can last as long as those exchanges'
// budget, and a timeout shorter than that can fail a submit that went
// through.
func (c *AdminClient) Submit(w WireJob) error {
	_, err := c.call(OpSubmit, 0, &w)
	return err
}

// Expect pre-registers a job to be submitted shortly (co-submission
// protocol: declare every member of a group everywhere before submitting
// any of them).
func (c *AdminClient) Expect(w WireJob) error {
	_, err := c.call(OpExpect, 0, &w)
	return err
}

// Status queries one job.
func (c *AdminClient) Status(id job.ID) (AdminResponse, error) {
	return c.call(OpStatus, id, nil)
}

// Cancel withdraws a job.
func (c *AdminClient) Cancel(id job.ID) error {
	_, err := c.call(OpCancel, id, nil)
	return err
}
