package proto

import (
	"errors"
	"log"
	"net"
	"sync"
	"time"
)

// acceptRetryPause is how long the accept loop waits after a failed Accept
// before it tries again. Go retries EINTR and ECONNABORTED itself but hands
// EMFILE and ENFILE to the caller; giving up on those would leave the
// listener open and the port deaf while the kernel kept completing
// handshakes into its backlog, so the loop pauses, letting descriptors free
// up, and carries on.
const acceptRetryPause = 50 * time.Millisecond

// Acceptor accepts TCP connections and serves each on a goroutine of its
// own: the connection handling both daemon endpoints share, Server (the
// peer port) and live.AdminServer (the admin port), each of which keeps
// only its own frame loop. The zero value is ready for one Listen.
type Acceptor struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen starts accepting TCP connections on addr and returns the bound
// address (useful with ":0"). Each connection is handed to serve on a
// goroutine of its own and closed when serve returns. logger, which may be
// nil, hears the accept errors the loop retries after.
func (a *Acceptor) Listen(addr string, logger *log.Logger, serve func(net.Conn)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a.start(ln, logger, serve)
	return ln.Addr(), nil
}

// start runs the accept loop on ln; a test passes a fake listener here.
func (a *Acceptor) start(ln net.Listener, logger *log.Logger, serve func(net.Conn)) {
	a.mu.Lock()
	a.ln = ln
	a.conns = make(map[net.Conn]struct{})
	a.mu.Unlock()
	a.wg.Add(1)
	go a.loop(ln, logger, serve)
}

func (a *Acceptor) loop(ln net.Listener, logger *log.Logger, serve func(net.Conn)) {
	defer a.wg.Done()
	for {
		conn, err := ln.Accept()
		a.mu.Lock()
		closed := a.closed
		if err == nil && !closed {
			a.conns[conn] = struct{}{}
			a.wg.Add(1)
		}
		a.mu.Unlock()
		switch {
		case closed || errors.Is(err, net.ErrClosed):
			if err == nil {
				conn.Close()
			}
			return
		case err != nil:
			if logger != nil {
				logger.Printf("%v; retrying in %v", err, acceptRetryPause)
			}
			//simlint:allow R2 a real pause between retries of a failed Accept on a live socket; no simulation clock here
			time.Sleep(acceptRetryPause)
		default:
			go func() {
				defer a.wg.Done()
				defer a.untrack(conn)
				serve(conn)
			}()
		}
	}
}

// untrack closes conn and forgets it.
func (a *Acceptor) untrack(conn net.Conn) {
	conn.Close()
	a.mu.Lock()
	delete(a.conns, conn)
	a.mu.Unlock()
}

// Close closes the listener and every open connection, then waits until
// every serving goroutine has returned. It reports the listener's close
// error.
func (a *Acceptor) Close() error {
	a.mu.Lock()
	a.closed = true
	var err error
	if a.ln != nil {
		err = a.ln.Close()
	}
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return err
}
