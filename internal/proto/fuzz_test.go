package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
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
		// Accepted frames must re-encode, as a request and as a response.
		var buf bytes.Buffer
		var req Request
		if err := ReadFrame(bytes.NewReader(data), &req); err == nil {
			if err := WriteFrame(&buf, &req); err != nil {
				t.Fatalf("accepted request failed to re-encode: %v", err)
			}
		}
		var resp Response
		if err := ReadFrame(bytes.NewReader(data), &resp); err == nil {
			if err := WriteFrame(&buf, &resp); err != nil {
				t.Fatalf("accepted response failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzFrameCodec is the differential target for the hand-written codec:
// encoding/json defines the wire, so for arbitrary payload bytes a decode
// through unmarshalFrame must give what json.Unmarshal alone gives (same
// value, same error-ness), for arbitrary field values WriteFrame's payload
// must be json.Marshal's, and what was written must decode both ways alike.
func FuzzFrameCodec(f *testing.F) {
	// payload, then the fields of one Request and one Response: seq, job_id,
	// at, atMode (0 = nil, else &at), three strings, two bools.
	f.Add([]byte(`{"seq":1,"method":"probe_mate","job_id":4242}`), uint64(1), int64(4242), int64(0), uint8(0), MethodProbeMate, "", "queuing", true, true)
	f.Add([]byte(`{"seq":2,"known":true,"status":"queuing","ok":true}`), uint64(math.MaxUint64), int64(0), int64(0), uint8(1), MethodStartMate, "A", "holding", false, false)
	f.Add([]byte(`{"seq":3,"method":"try_start_mate","job_id":-7,"at":-1234}`), uint64(3), int64(-7), int64(-1234), uint8(1), "a\"b\\c", "<x>&", "\x00\x1f", true, false)
	f.Add([]byte(`{"seq":4,"seq":5,"Seq":6,"extra":null}`), uint64(0), int64(math.MinInt64), int64(math.MaxInt64), uint8(1), "é", "\xff\xfe", "\u2028", false, true)
	f.Add([]byte(` {"seq": 01, "ok": 1e3}x`), uint64(7), int64(1), int64(1), uint8(0), "", "", "", false, false)
	f.Add([]byte(`{"seq":8,"method":"reconcile_mates","from":"A","views":[{"local":1,"mate":2,"status":"holding"}]}`), uint64(8), int64(0), int64(0), uint8(0), MethodReconcile, "A", "", false, false)
	f.Add([]byte(`{"seq":18446744073709551616,"job_id":9223372036854775808,"at":-9223372036854775809}`), uint64(9), int64(9), int64(9), uint8(2), "\x7f", "x", "y", true, true)
	// The scanner's boundaries (wirejson's scannerBoundaries) under every
	// key that reads a number or a string, after the members the encoder
	// writes before it: 19, 20 and 21 digits, the int64 extremes, leading
	// zeros, a byte that is not Plain before the quote.
	before := map[string]string{
		"seq": `{`, "job_id": `{"seq":1,"method":"ping",`, "at": `{"seq":1,"method":"ping",`,
		"from": `{"seq":1,"method":"ping",`, "method": `{"seq":1,`, "error": `{"seq":1,`, "status": `{"seq":1,`,
	}
	for _, v := range []string{
		`9999999999999999999`, `18446744073709551615`, `18446744073709551616`,
		`99999999999999999999`, `100000000000000000000`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
		`0`, `00`, `007`, `-0`, `-00`,
	} {
		for _, key := range []string{"seq", "job_id", "at"} {
			f.Add([]byte(before[key]+`"`+key+`":`+v+`}`), uint64(1), int64(0), int64(0), uint8(0), "", "", "", false, false)
		}
	}
	for _, v := range []string{`"ab"`, "\"ab\x7f\"", "\"ab\x1f\"", `"ab<"`, `"ab\""`, `"ab`} {
		for _, key := range []string{"method", "from", "status", "error"} {
			f.Add([]byte(before[key]+`"`+key+`":`+v+`}`), uint64(1), int64(0), int64(0), uint8(0), "ab\x7f", "ab<", "ab", false, false)
		}
	}
	// Canonical members in another order, which the parser declines.
	f.Add([]byte(`{"method":"probe_mate","seq":1,"job_id":4242}`), uint64(1), int64(4242), int64(0), uint8(0), MethodProbeMate, "", "queuing", true, true)
	f.Add([]byte(`{"seq":2,"ok":true,"known":true,"status":"queuing"}`), uint64(2), int64(0), int64(0), uint8(0), "", "", "", false, false)
	f.Fuzz(func(t *testing.T, payload []byte, seq uint64, jobID, at int64, atMode uint8, s1, s2, s3 string, b1, b2 bool) {
		decodeBothWays(t, payload)
		req := Request{Seq: seq, Method: s1, JobID: job.ID(jobID), From: s2}
		if atMode != 0 {
			req.At = &at
		}
		decodeBothWays(t, encodeBothWays(t, &req))
		resp := Response{Seq: seq, Error: s1, Domain: s2, Known: b1, Status: s3, OK: b2}
		decodeBothWays(t, encodeBothWays(t, &resp))
	})
}

// chunkReader serves b in reads whose sizes cycle through sizes: a
// connection whose bytes arrive in the fuzzer's pieces.
type chunkReader struct {
	b     []byte
	sizes []byte
	k     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.sizes) > 0 {
		c := int(r.sizes[r.k%len(r.sizes)])
		n, r.k = 1+c*c, r.k+1 // up to 64 KiB
	}
	n = copy(p, r.b[:min(n, len(r.b))])
	r.b = r.b[n:]
	return n, nil
}

// FuzzFrameReader: FrameReader.Next hands out a stream's frames — read in
// place when one lies whole in its buffer, copied when it straddles reads
// or outgrows the buffer — as readPayload copying every frame reads them:
// the same payloads in the same order, and the same error at the end, a
// torn last frame included, whatever sizes the connection's reads come in.
// The fuzzer picks the frames' lengths (a length byte of 128 or more is a
// frame of up to 8 KiB, past the reader's 4 KiB buffer), their bytes, the
// read sizes and how much of the stream's tail to tear off.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte(`{"seq":1}`), []byte{9, 0, 200, 9}, []byte{}, uint16(0))
	f.Add([]byte("abcdefgh"), []byte{3, 0, 200, 7, 255}, []byte{0, 5, 255, 2}, uint16(0))
	f.Add([]byte{'x'}, []byte{130, 1, 2, 64}, []byte{40, 1}, uint16(3))
	f.Add([]byte{0, 0, 0, 2}, []byte{1, 1, 1}, []byte{2}, uint16(6))
	f.Fuzz(func(t *testing.T, data, lengths, chunks []byte, tear uint16) {
		var stream []byte
		for k, l := range lengths {
			n := int(l)
			if l >= 128 {
				n = int(l-128) * 64
			}
			stream = binary.BigEndian.AppendUint32(stream, uint32(n))
			for i := range n {
				c := byte(k)
				if len(data) > 0 {
					c = data[(k+i)%len(data)]
				}
				stream = append(stream, c)
			}
		}
		stream = stream[:len(stream)-min(int(tear), len(stream))]
		want, fr := bytes.NewReader(stream), NewFrameReader(&chunkReader{b: stream, sizes: chunks})
		var hdr [4]byte
		for i := 0; ; i++ {
			wantPayload, wantErr := readPayload(want, hdr[:], nil)
			payload, err := fr.Next()
			if !bytes.Equal(payload, wantPayload) || err != wantErr {
				t.Fatalf("frame %d: Next gave %d bytes, %v; readPayload %d bytes, %v", i, len(payload), err, len(wantPayload), wantErr)
			}
			if wantErr != nil {
				return
			}
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
