// Package proto is the lightweight coordination protocol of Tang et al.
// (ICPP 2011) on the wire: length-prefixed JSON request/response frames,
// one Request answered by one Response with the same Seq.
//
//	method           carries            answers          Caller method                        retry
//	ping             —                  domain           (Client.Ping)                        yes
//	probe_mate       job_id             known,status,ok  ProbeMate (cosched.Prober)           yes
//	get_mate_job     job_id             known            GetMateJob (cosched.Peer)            yes
//	get_mate_status  job_id             status           GetMateStatus (cosched.Peer)         yes
//	can_start_mate   job_id             ok               CanStartMate (cosched.Peer)          yes
//	try_start_mate   job_id, at?        ok               TryStartMate[At] (Peer/CoStarter)    no
//	start_mate       job_id, at?        —                StartMate[At] (Peer/CoStarter)       no
//	reconcile_mates  from, views        views            ReconcileMates (cosched.Reconciler)  yes
//
// probe_mate is what Algorithm 1 sends: the three read-only queries
// Run_Job makes about a mate, answered from one snapshot in one round
// trip. The three single-query methods stay served for peers that only
// speak cosched.Peer (cosched.ProbeMate composes the probe from them). at
// is the caller's proposed co-start instant; without it the callee stamps
// its own clock. The retry column is Idempotent: internal/peerlink may
// replay those methods after an ambiguous failure, never try_start_mate or
// start_mate. Any method the server does not know is answered with an
// ErrBadMethod error string, which the client surfaces as a RemoteError
// like any other refusal.
//
// The protocol is deliberately minimal — the paper's argument for
// practicality is that two administratively independent resource managers
// need only these calls, with no shared configuration and no global
// submission portal. Every layer between Run_Job and a remote manager is an
// Exchanger — one Request in, one Response out — and the typed calls above
// are written once, in Caller, over any of them: a Server dispatches a
// request to any cosched.Peer (normally a resmgr.Manager), a Client carries
// it over any net.Conn, a FaultInjector wraps either with seeded chaos, and
// internal/peerlink adds redial and retry. Between real daemons the conn is
// TCP, accepted by an Acceptor and served by a goroutine per connection
// (ServeConn); a simulation has no
// connection to cross and writes to Server.InProcessConn, which parses,
// dispatches and answers the frame on the calling goroutine — the same
// bytes, one thread. A frame is built whole, header and payload, in a
// buffer its connection keeps (a Client's, a ServeConn connection's, an
// InProcessConn's output), written with one Write and read through a
// per-connection buffered FrameReader, so a call costs one write and
// (usually) one read per side.
//
// encoding/json defines the payload; Request and Response also have a
// hand-written codec (codec.go), built from internal/wirejson and held to
// the rule stated there, that WriteFrame and ReadFrame reach by a type
// switch and that is not a second format. The encoder appends exactly
// json.Marshal's bytes and leaves to encoding/json any frame it cannot
// write verbatim: one with views, or with a string holding anything but
// printable ASCII free of `"`, `\`, `<`, `>` and `&`. The parser takes only
// the canonical shape — one object, no whitespace, the known lowercase keys
// each at most once in any order, plain decimal integers in range,
// true/false, strings of those same plain bytes, nothing after the closing
// brace — and passes every other payload, untouched, to json.Unmarshal,
// which accepts, rejects and decodes it as it always has. So peers with and
// without the codec interoperate, reconcile_mates stays on encoding/json,
// and a steady-state probe_mate round trip allocates nothing: method and
// status names decode to this package's and cosched's own strings, and
// Client and Server call the typed forms so their frames never escape
// through `any`. The framing's other user, live's admin frames, brings a
// codec of its own under the same rule, which WriteFrame and ReadFrame find
// through FrameCodec; any other value is encoded and decoded by
// encoding/json.
//
// Fault tolerance is part of the contract: any transport error or timeout
// surfaces as an error from the Caller method, which Algorithm 1 maps to
// "status unknown" and a normal (uncoordinated) job start.
package proto

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// Method names carried in request frames.
const (
	MethodPing          = "ping"
	MethodGetMateJob    = "get_mate_job"
	MethodGetMateStatus = "get_mate_status"
	MethodCanStartMate  = "can_start_mate"
	MethodProbeMate     = "probe_mate"
	MethodTryStartMate  = "try_start_mate"
	MethodStartMate     = "start_mate"
	MethodReconcile     = "reconcile_mates"
)

// MaxFrameSize bounds a frame's payload; anything larger is rejected as
// corrupt before allocation.
const MaxFrameSize = 1 << 20

// Request is one coordination call.
type Request struct {
	Seq    uint64 `json:"seq"`
	Method string `json:"method"`
	JobID  job.ID `json:"job_id,omitempty"`
	// At, when present on try_start_mate / start_mate, is the caller's
	// proposed co-start instant (cosched.CoStarter). A pointer so legacy
	// frames without the field keep plain StartMate semantics instead of
	// proposing instant 0.
	At *sim.Time `json:"at,omitempty"`
	// From and Views carry a reconcile_mates exchange: the caller's domain
	// name and its views of every shared pair.
	From  string     `json:"from,omitempty"`
	Views []MateWire `json:"views,omitempty"`
}

// Response answers a Request with the same Seq.
type Response struct {
	Seq    uint64     `json:"seq"`
	Error  string     `json:"error,omitempty"`
	Domain string     `json:"domain,omitempty"` // ping: responder's domain name
	Known  bool       `json:"known,omitempty"`  // get_mate_job, probe_mate
	Status string     `json:"status,omitempty"` // get_mate_status, probe_mate
	OK     bool       `json:"ok,omitempty"`     // can/try_start_mate; probe_mate: CanStart
	Views  []MateWire `json:"views,omitempty"`  // reconcile_mates
}

// MateWire is one cosched.MateView on the wire; statuses travel by name so
// frames stay debuggable and independent of the enum's numeric values.
type MateWire struct {
	Local  job.ID   `json:"local"`
	Mate   job.ID   `json:"mate"`
	Status string   `json:"status"`
	Start  sim.Time `json:"start,omitempty"`
}

// ViewsToWire encodes mate views for a frame.
func ViewsToWire(vs []cosched.MateView) []MateWire {
	if len(vs) == 0 {
		return nil
	}
	out := make([]MateWire, len(vs))
	for i, v := range vs {
		out[i] = MateWire{Local: v.Local, Mate: v.Mate, Status: v.Status.String(), Start: v.Start}
	}
	return out
}

// ViewsFromWire decodes mate views from a frame. Unknown status names are
// rejected: acting on a misparsed view could release a healthy hold.
func ViewsFromWire(ws []MateWire) ([]cosched.MateView, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	out := make([]cosched.MateView, len(ws))
	for i, w := range ws {
		st, err := cosched.ParseMateStatus(w.Status)
		if err != nil {
			return nil, err
		}
		out[i] = cosched.MateView{Local: w.Local, Mate: w.Mate, Status: st, Start: w.Start}
	}
	return out, nil
}

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrameSize")
	ErrBadMethod     = errors.New("proto: unknown method")
)

// FrameCodec is how a frame type outside this package brings its own
// hand-written codec (built from internal/wirejson, under its rule) to
// WriteFrame and ReadFrame: both try it first and hand to encoding/json what
// it declines.
type FrameCodec interface {
	// AppendFrame appends json.Marshal of the value to b, or reports false,
	// having appended nothing the caller may keep.
	AppendFrame(b []byte) ([]byte, bool)
	// ParseFrame decodes a canonical payload into the value as
	// json.Unmarshal would, or reports false with the value untouched.
	ParseFrame(payload []byte) bool
}

// maxPooledFrame caps the frame buffers kept between frames (a Client's or
// a connection's, WriteFrame's pooled scratch and a FrameReader's payload
// buffer), so one large reconcile exchange does not pin a megabyte for the
// life of the process or the connection. Coordination frames are around a
// hundred bytes.
const maxPooledFrame = 64 << 10

// inlineFrame is the frame storage a Client and an in-process conn carry in
// their own struct, so that neither grows a buffer for the first frame it
// builds: a coordination frame is under a hundred bytes.
const inlineFrame = 128

// reuseFrame returns buf emptied for the next frame, or inline (a
// connection's own storage) when buf grew past maxPooledFrame.
func reuseFrame(buf, inline []byte) []byte {
	if cap(buf) > maxPooledFrame {
		return inline[:0]
	}
	return buf[:0]
}

// appendRequestFrame appends a whole frame for req to b — four header bytes,
// then json.Marshal(req)'s payload — with one pass of the hand-written
// encoder, or through encoding/json for a request it declines (views, a
// string that needs an escape). The caller writes the result with one Write
// and keeps the buffer for its next frame. On an error b comes back as it
// was: nothing a caller may send.
func appendRequestFrame(b []byte, req *Request) ([]byte, error) {
	if frame, ok := appendRequest(append(b, 0, 0, 0, 0), req); ok {
		return sealFrame(frame, len(b))
	}
	slow := *req // only a declined request reaches the heap
	return appendJSONFrame(b, &slow)
}

// appendResponseFrame is appendRequestFrame for a response.
func appendResponseFrame(b []byte, resp *Response) ([]byte, error) {
	if frame, ok := appendResponse(append(b, 0, 0, 0, 0), resp); ok {
		return sealFrame(frame, len(b))
	}
	slow := *resp
	return appendJSONFrame(b, &slow)
}

// appendFrame is the builder for any value: a *Request or *Response takes
// its typed builder and a FrameCodec its own encoder; every other value,
// and every value those decline, is encoded by encoding/json.
func appendFrame(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case *Request:
		if v != nil {
			return appendRequestFrame(b, v)
		}
	case *Response:
		if v != nil {
			return appendResponseFrame(b, v)
		}
	case FrameCodec:
		if frame, ok := v.AppendFrame(append(b, 0, 0, 0, 0)); ok {
			return sealFrame(frame, len(b))
		}
	}
	return appendJSONFrame(b, v)
}

// appendJSONFrame appends a frame whose payload is json.Marshal(v).
func appendJSONFrame(b []byte, v any) ([]byte, error) {
	frame, err := appendJSON(append(b, 0, 0, 0, 0), v)
	if err != nil {
		return b, err
	}
	return sealFrame(frame, len(b))
}

// sealFrame fills in the header at frame[start:] once the payload after it
// is complete, or returns frame[:start] for a payload over MaxFrameSize.
func sealFrame(frame []byte, start int) ([]byte, error) {
	n := len(frame) - start - 4
	if n > MaxFrameSize {
		return frame[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame[start:], uint32(n))
	return frame, nil
}

// jsonAppender is a json.Encoder that appends to the slice it is lent, so a
// pooled one encodes into a caller's buffer without allocating.
type jsonAppender struct {
	b   []byte
	enc *json.Encoder // writes through the jsonAppender
}

func (a *jsonAppender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

var jsonAppenders = sync.Pool{New: func() any {
	a := new(jsonAppender)
	a.enc = json.NewEncoder(a)
	return a
}}

// appendJSON appends json.Marshal(v) to b.
func appendJSON(b []byte, v any) ([]byte, error) {
	a := jsonAppenders.Get().(*jsonAppender)
	a.b = b
	err := a.enc.Encode(v) // writes nothing unless v encodes
	b, a.b = a.b, nil
	jsonAppenders.Put(a)
	if err != nil {
		return b, fmt.Errorf("proto: marshal: %w", err)
	}
	return b[:len(b)-1], nil // Encode appends a newline json.Marshal does not
}

// frameBufs is WriteFrame's scratch, for the writers that keep no frame
// buffer of their own.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes a length-prefixed JSON encoding of v with a single
// Write: header and payload leave together, so a frame costs one syscall
// on a socket and is never interleaved with a partial header. Nothing is
// written when encoding fails or the payload exceeds MaxFrameSize. A
// *Request or *Response takes the hand-written encoder (same bytes, see
// appendRequestFrame) and a FrameCodec its own; every other type, and every
// value those decline, is encoded by encoding/json. The frame is built in
// pooled scratch: Client and Server build theirs in a buffer each
// connection keeps, and this is for every other writer (live's admin
// client and server, tests).
func WriteFrame(w io.Writer, v any) error {
	buf := frameBufs.Get().(*[]byte)
	frame, err := appendFrame((*buf)[:0], v)
	if err == nil {
		_, err = w.Write(frame)
	}
	if cap(frame) <= maxPooledFrame {
		*buf = frame[:0]
		frameBufs.Put(buf)
	}
	return err
}

// ReadFrame reads one length-prefixed JSON frame into v. A caller that
// reads many frames from one connection should use a FrameReader instead.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	payload, err := readPayload(r, hdr[:], nil)
	if err != nil {
		return err
	}
	return unmarshalFrame(payload, v)
}

// FrameReader reads the frames of one connection through a buffered
// reader, so a frame that arrived whole costs one Read of the connection
// instead of two (header, payload), and decodes every frame from one
// reused payload buffer. Not safe for concurrent use; every reading end
// owns one per connection: Client and Server.ServeConn on the peer port,
// live's AdminClient and AdminServer on the admin port.
type FrameReader struct {
	br      *bufio.Reader
	hdr     [4]byte
	payload []byte
}

// NewFrameReader buffers r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// ReadFrame reads the next frame into v. It blocks like a read of the
// underlying connection, whose deadline (if any) bounds it.
func (fr *FrameReader) ReadFrame(v any) error {
	payload, err := fr.Next()
	if err != nil {
		return err
	}
	return unmarshalFrame(payload, v)
}

// Next reads the next frame's payload into the reused buffer and returns it
// undecoded, for a reader that decodes into scratch of its own; the bytes
// are valid until the following call.
func (fr *FrameReader) Next() ([]byte, error) {
	payload, err := readPayload(fr.br, fr.hdr[:], fr.payload)
	if err == nil && cap(payload) <= maxPooledFrame {
		fr.payload = payload[:0]
	}
	return payload, err
}

// readPayload reads one frame's header into hdr and its payload into buf
// (grown when too small), rejecting an oversized length before allocating.
func readPayload(r io.Reader, hdr, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// unmarshalFrame decodes a payload into v: a *Request, *Response or
// FrameCodec through its strict parser first, everything else — and every
// payload the parser does not recognise — through json.Unmarshal.
func unmarshalFrame(payload []byte, v any) error {
	switch v := v.(type) {
	case *Request:
		if v != nil {
			return unmarshalRequest(payload, v, nil)
		}
	case *Response:
		if v != nil {
			return unmarshalResponse(payload, v)
		}
	case FrameCodec:
		if v.ParseFrame(payload) {
			return nil
		}
	}
	return unmarshalJSON(payload, v)
}

func unmarshalJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("proto: unmarshal: %w", err)
	}
	return nil
}

// unmarshalRequest is unmarshalFrame for a request, typed so the caller's
// value does not escape: json.Unmarshal, when it has to run, decodes a heap
// copy that is copied back whatever the outcome (a failed Unmarshal leaves
// the members it got to set, as it always did). at is the storage a decoded
// "at" may use (see parseRequest).
func unmarshalRequest(payload []byte, req *Request, at *sim.Time) error {
	if parseRequest(payload, req, at) {
		return nil
	}
	slow := *req
	err := unmarshalJSON(payload, &slow)
	*req = slow
	return err
}

// unmarshalResponse is unmarshalRequest for a response.
func unmarshalResponse(payload []byte, resp *Response) error {
	if parseResponse(payload, resp) {
		return nil
	}
	slow := *resp
	err := unmarshalJSON(payload, &slow)
	*resp = slow
	return err
}
