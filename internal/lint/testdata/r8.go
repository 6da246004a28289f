// R8 fixtures: no mutex held across a blocking call — the stalled-link
// shape. A blocked frame write under the link mutex parks every goroutine
// contending for it, including the one that would have noticed the dead
// peer.
package fixture

import (
	"net"
	"sync"

	"cosched/internal/proto"
)

type wire struct {
	mu   sync.Mutex
	seq  int
	conn net.Conn
}

// heldAcrossWrite holds the mutex (via defer-Unlock, so to function end)
// across a frame write that can park on a full TCP window.
func heldAcrossWrite(w *wire, v any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return proto.WriteFrame(w.conn, v) // want "R8"
}

// heldAcrossChannel blocks on a channel send while holding the lock.
func heldAcrossChannel(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want "R8"
	mu.Unlock()
}

// heldAcrossHelper blocks through a callee: the helper's summary says it
// may block on the conn, so calling it under the lock is the same stall.
func heldAcrossHelper(w *wire, buf []byte) {
	w.mu.Lock()
	pushRaw(w.conn, buf) // want "R8"
	w.mu.Unlock()
}

func pushRaw(conn net.Conn, buf []byte) {
	if _, err := conn.Write(buf); err != nil {
		return
	}
}

// snapshotThenSend is the sanctioned shape: copy state under the lock,
// release, then touch the network.
func snapshotThenSend(w *wire, v any) error {
	w.mu.Lock()
	seq := w.seq
	w.seq = seq + 1
	w.mu.Unlock()
	return proto.WriteFrame(w.conn, v)
}

// The live lock cycle (ROADMAP item 1), reduced. The driver holds its lock
// while the engine fires a stored callback; the callback runs the
// scheduler; the scheduler asks its peer, an interface whose live
// implementation writes a frame; and the remote server's dispatch needs
// the remote driver's lock — held the same way — to answer. Two dynamic
// hops (the stored callback, the interface method) separate the Lock from
// the write, and R8 follows neither: a recorded known miss.

type mate interface{ tryStart(id int) error }

type wireMate struct{ conn net.Conn }

func (m *wireMate) tryStart(id int) error { return proto.WriteFrame(m.conn, id) }

type sched struct {
	peer    mate
	started int
}

func (s *sched) runJob(id int) {
	if s.peer.tryStart(id) == nil {
		s.started++
	}
}

type engine struct{ due []func() }

func (e *engine) step() {
	f := e.due[0]
	e.due = e.due[1:]
	f()
}

type driver struct {
	mu  sync.Mutex
	eng *engine
}

// driverRun is live.Driver.Run: step the engine under the driver lock.
func driverRun(d *driver, s *sched) {
	d.eng.due = append(d.eng.due, func() { s.runJob(1) })
	d.mu.Lock()
	d.eng.step() // known miss "R8"
	d.mu.Unlock()
}

// serverDispatch is proto.Server.dispatch: the peer's question is answered
// under the same driver lock, so it waits for driverRun to let go.
func serverDispatch(d *driver, s *sched) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return s.started
}
