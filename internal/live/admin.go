package live

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
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
}

// NewAdminServer wraps a manager and its driver.
func NewAdminServer(mgr *resmgr.Manager, driver *Driver, logger *log.Logger) *AdminServer {
	return &AdminServer{mgr: mgr, driver: driver, logger: logger}
}

// Listen starts accepting admin connections.
func (s *AdminServer) Listen(addr string) (net.Addr, error) {
	return s.acc.Listen(addr, s.logger, s.serveConn)
}

// serveConn answers admin calls on conn until EOF or error; the acceptor
// closes conn.
func (s *AdminServer) serveConn(conn net.Conn) {
	frames := proto.NewFrameReader(conn)
	// One request and one response for the connection's life, reset per
	// frame: passing their addresses to the framing moves them to the heap.
	var req AdminRequest
	var resp AdminResponse
	for {
		req = AdminRequest{}
		if err := frames.ReadFrame(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && s.logger != nil {
				s.logger.Printf("admin: read: %v", err)
			}
			return
		}
		resp = s.dispatch(req)
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
			if _, ok := s.mgr.Job(w.ID); ok {
				resp.State = job.Unsubmitted.String()
				return // already known; idempotent
			}
			if _, err := s.expect(w); err != nil {
				resp.Error = err.Error()
				return
			}
			resp.State = job.Unsubmitted.String()
		})
	case OpSubmit:
		if req.Job == nil {
			resp.Error = "submit: missing job"
			break
		}
		w := req.Job
		s.driver.Do(func() {
			j, known := s.mgr.Job(w.ID)
			if known {
				if j.State != job.Unsubmitted {
					resp.Error = fmt.Sprintf("job %d already %s", w.ID, j.State)
					return
				}
			} else {
				var err error
				if j, err = s.expect(w); err != nil {
					resp.Error = err.Error()
					return
				}
			}
			// Land the submission at the wall-clock's virtual instant so
			// wait-time accounting is correct even while the engine idles.
			at := s.driver.virtualNowLocked()
			if now := s.mgr.Engine().Now(); at < now {
				at = now
			}
			j.SubmitTime = at
			if _, err := s.mgr.Engine().At(at, sim.PrioritySubmit, func(sim.Time) {
				if err := s.mgr.Submit(j); err != nil && s.logger != nil {
					s.logger.Printf("admin: submit job %d: %v", j.ID, err)
				}
			}); err != nil {
				resp.Error = err.Error()
				return
			}
			resp.State = job.Unsubmitted.String()
		})
	case OpCancel:
		s.driver.Do(func() {
			if err := s.mgr.Cancel(req.JobID); err != nil {
				resp.Error = err.Error()
				return
			}
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
// submitted, refusing one wider than the pool: no release could ever make it
// fit, so it would queue for ever and its mates on the other domains would
// hold or yield for it, release interval after release interval. The job
// keeps w's mates without copying them; a decoded WireJob is never used
// again.
func (s *AdminServer) expect(w *WireJob) (*job.Job, error) {
	if total := s.mgr.Pool().Total(); w.Nodes > total {
		return nil, fmt.Errorf("job %d asks for %d nodes; %s has %d", w.ID, w.Nodes, s.mgr.Name(), total)
	}
	j := job.New(w.ID, w.Nodes, 0, w.Runtime, w.Walltime)
	j.Name = w.Name
	j.Mates = w.Mates
	return j, s.mgr.Expect(j)
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
	// The frames of the call in progress: fields, so that handing their
	// addresses to the framing does not allocate a pair per call.
	req  AdminRequest
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

func (c *AdminClient) call(req AdminRequest) (AdminResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	req.Seq = c.seq
	c.req, c.resp = req, AdminResponse{}
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
	if resp.Seq != req.Seq {
		// A late answer to an earlier request: every later response on this
		// connection would be off by one too, so the connection is retired.
		c.conn.Close()
		return AdminResponse{}, fmt.Errorf("admin: sequence mismatch: sent %d, got %d", req.Seq, resp.Seq)
	}
	if resp.Error != "" {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// Info fetches daemon state.
func (c *AdminClient) Info() (AdminResponse, error) {
	return c.call(AdminRequest{Op: OpInfo})
}

// Submit sends a job.
func (c *AdminClient) Submit(w WireJob) error {
	_, err := c.call(AdminRequest{Op: OpSubmit, Job: &w})
	return err
}

// Expect pre-registers a job to be submitted shortly (co-submission
// protocol: declare every member of a group everywhere before submitting
// any of them).
func (c *AdminClient) Expect(w WireJob) error {
	_, err := c.call(AdminRequest{Op: OpExpect, Job: &w})
	return err
}

// Status queries one job.
func (c *AdminClient) Status(id job.ID) (AdminResponse, error) {
	return c.call(AdminRequest{Op: OpStatus, JobID: id})
}

// Cancel withdraws a job.
func (c *AdminClient) Cancel(id job.ID) error {
	_, err := c.call(AdminRequest{Op: OpCancel, JobID: id})
	return err
}
