package proto

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"cosched/internal/cosched"
)

// Server exposes a cosched.Peer (normally a resmgr.Manager) to remote
// domains, and is itself the innermost Exchanger. Each network connection
// is served by its own goroutine; backend access is serialized through an
// optional sync.Locker so the single-threaded Manager stays safe under the
// live daemon's concurrency.
type Server struct {
	backend cosched.Peer
	lock    sync.Locker
	logger  *log.Logger

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps backend. lock may be nil when the caller guarantees
// single-threaded access (a simulation calls through InProcessConn, so the
// backend runs on the engine's own goroutine). logger may be nil.
func NewServer(backend cosched.Peer, lock sync.Locker, logger *log.Logger) *Server {
	return &Server{
		backend: backend,
		lock:    lock,
		logger:  logger,
		conns:   make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting TCP connections on addr and returns the bound
// address (useful with ":0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn answers requests on conn until EOF or error: what a TCP daemon
// runs, on a goroutine of its own, per connection. (A simulation calls
// through InProcessConn instead.)
func (s *Server) ServeConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	frames := NewFrameReader(conn)
	for {
		// The read carries no deadline: a peer connection idles between
		// requests by design, request liveness is bounded by the client's
		// own per-call deadlines, and shutdown closes the conn to unblock it.
		payload, err := frames.next()
		if err == nil {
			err = s.answer(payload, conn)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && s.logger != nil {
				s.logger.Printf("proto server: %v", err)
			}
			return
		}
	}
}

// answer is the server's step for one request frame, whatever carried it:
// parse, dispatch, write the response frame to w. The typed forms of
// ReadFrame and WriteFrame keep req and resp on the stack: no allocation.
func (s *Server) answer(payload []byte, w io.Writer) error {
	var req Request
	if err := unmarshalRequest(payload, &req); err != nil {
		return err
	}
	resp := s.dispatch(req)
	return writeResponse(w, &resp)
}

// PeerName implements Exchanger: the backend's domain name.
func (s *Server) PeerName() string { return s.backend.PeerName() }

// Exchange implements Exchanger with no connection at all: the request is
// dispatched to the backend on the caller's goroutine, and a refusal comes
// back as the RemoteError a Client would return for it.
func (s *Server) Exchange(req Request) (Response, error) {
	resp := s.dispatch(req)
	if resp.Error != "" {
		return resp, &RemoteError{Method: req.Method, Msg: resp.Error}
	}
	return resp, nil
}

// dispatch executes one request against the backend.
func (s *Server) dispatch(req Request) Response {
	if s.lock != nil {
		s.lock.Lock()
		defer s.lock.Unlock()
	}
	resp := Response{Seq: req.Seq}
	switch req.Method {
	case MethodPing:
		resp.Domain = s.backend.PeerName()
	case MethodGetMateJob:
		known, err := s.backend.GetMateJob(req.JobID)
		resp.Known = known
		setErr(&resp, err)
	case MethodGetMateStatus:
		st, err := s.backend.GetMateStatus(req.JobID)
		resp.Status = st.String()
		setErr(&resp, err)
	case MethodCanStartMate:
		ok, err := s.backend.CanStartMate(req.JobID)
		resp.OK = ok
		setErr(&resp, err)
	case MethodProbeMate:
		// The helper serves any backend: a plain Peer is asked the three
		// queries here, under one hold of the lock.
		probe, err := cosched.ProbeMate(s.backend, req.JobID)
		resp.Known, resp.Status, resp.OK = probe.Known, probe.Status.String(), probe.CanStart
		setErr(&resp, err)
	case MethodTryStartMate:
		// An At-carrying frame proposes the co-start instant; honor it when
		// the backend speaks the extension, else degrade to the plain call.
		if cs, has := s.backend.(cosched.CoStarter); has && req.At != nil {
			ok, err := cs.TryStartMateAt(req.JobID, *req.At)
			resp.OK = ok
			setErr(&resp, err)
			break
		}
		ok, err := s.backend.TryStartMate(req.JobID)
		resp.OK = ok
		setErr(&resp, err)
	case MethodStartMate:
		if cs, has := s.backend.(cosched.CoStarter); has && req.At != nil {
			setErr(&resp, cs.StartMateAt(req.JobID, *req.At))
			break
		}
		setErr(&resp, s.backend.StartMate(req.JobID))
	case MethodReconcile:
		r, has := s.backend.(cosched.Reconciler)
		if !has {
			resp.Error = "reconcile_mates: backend does not support reconciliation"
			break
		}
		views, err := ViewsFromWire(req.Views)
		if err != nil {
			setErr(&resp, err)
			break
		}
		out, err := r.ReconcileMates(req.From, views)
		resp.Views = ViewsToWire(out)
		setErr(&resp, err)
	default:
		resp.Error = fmt.Sprintf("%v: %q", ErrBadMethod, req.Method)
	}
	return resp
}

func setErr(resp *Response, err error) {
	if err != nil {
		resp.Error = err.Error()
	}
}

// Close stops the listener and all connections, then waits for the serving
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
