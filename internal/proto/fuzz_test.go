package proto

import (
	"bytes"
	"testing"

	"cosched/internal/job"
)

// FuzzReadFrame hardens the wire codec against corrupt or hostile peers:
// arbitrary bytes must produce an error or a parsed value — never a panic
// or an oversized allocation.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	_ = WriteFrame(&good, &Request{Seq: 1, Method: MethodPing})
	f.Add(good.Bytes())
	var probeReq, probeResp bytes.Buffer
	_ = WriteFrame(&probeReq, &Request{Seq: 2, Method: MethodProbeMate, JobID: 4242})
	f.Add(probeReq.Bytes())
	_ = WriteFrame(&probeResp, &Response{Seq: 2, Known: true, Status: "queuing", OK: true})
	f.Add(probeResp.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := ReadFrame(bytes.NewReader(data), &req); err != nil {
			return
		}
		// Accepted frames must re-encode.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &req); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
	})
}

// FuzzServerDispatch throws arbitrary requests at the dispatcher backed by
// a real (empty) manager stand-in: no input may panic it, and every
// response must echo the sequence number.
func FuzzServerDispatch(f *testing.F) {
	f.Add(uint64(1), MethodPing, int64(0))
	f.Add(uint64(2), MethodGetMateStatus, int64(7))
	f.Add(uint64(3), "bogus", int64(-1))
	f.Add(uint64(5), MethodProbeMate, int64(7))
	f.Add(uint64(4), MethodTryStartMate, int64(1<<40))
	backend := newFakeBackend()
	server := NewServer(backend, nil, nil)
	f.Fuzz(func(t *testing.T, seq uint64, method string, jobID int64) {
		resp := server.dispatch(Request{Seq: seq, Method: method, JobID: job.ID(jobID)})
		if resp.Seq != seq {
			t.Fatalf("response seq %d, want %d", resp.Seq, seq)
		}
	})
}
