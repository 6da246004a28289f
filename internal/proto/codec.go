package proto

import (
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/wirejson"
)

// The reflection-free codec for Request and Response: a fast path inside the
// JSON framing, not a second format. Each parser reads a frame member by
// member in the order its encoder writes it (see the package comment for
// what it takes and what it leaves to encoding/json).

// appendRequest appends json.Marshal(r) to b. It reports false, having
// appended nothing a caller may keep, for a request it cannot write
// verbatim: one with views or with a string that needs an escape.
func appendRequest(b []byte, r *Request) ([]byte, bool) {
	if len(r.Views) != 0 || !wirejson.PlainString(r.Method) || !wirejson.PlainString(r.From) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendStr(b, `,"method":"`, r.Method)
	b = wirejson.AppendOmitInt(b, `,"job_id":`, int64(r.JobID))
	if r.At != nil {
		b = wirejson.AppendInt(b, `,"at":`, *r.At)
	}
	b = wirejson.AppendOmitStr(b, `,"from":"`, r.From)
	return append(b, '}'), true
}

// appendResponse is appendRequest for a Response.
func appendResponse(b []byte, r *Response) ([]byte, bool) {
	if len(r.Views) != 0 || !wirejson.PlainString(r.Error) || !wirejson.PlainString(r.Domain) || !wirejson.PlainString(r.Status) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendOmitStr(b, `,"error":"`, r.Error)
	b = wirejson.AppendOmitStr(b, `,"domain":"`, r.Domain)
	b = wirejson.AppendOmitTrue(b, `,"known":true`, r.Known)
	b = wirejson.AppendOmitStr(b, `,"status":"`, r.Status)
	b = wirejson.AppendOmitTrue(b, `,"ok":true`, r.OK)
	return append(b, '}'), true
}

// methodNames and statusNames are the strings a decoded frame's method and
// status are expected to be (the methods most frequent first);
// Scanner.Enum returns the table's copy so a steady-state frame decodes
// without allocating.
var (
	methodNames = [...]string{
		MethodProbeMate, MethodTryStartMate, MethodStartMate, MethodPing,
		MethodGetMateJob, MethodGetMateStatus, MethodCanStartMate, MethodReconcile,
	}
	statusNames = func() (names [cosched.StatusCompleted + 1]string) {
		for st := range names {
			names[st] = cosched.MateStatus(st).String()
		}
		return names
	}()
)

// parseRequest decodes payload into *dst as json.Unmarshal would, if
// payload is what appendRequest writes: the members in struct order, each
// key as json.Marshal spells it, seq and method present, the omitempty ones
// present or absent; members the payload omits keep their value in *dst.
// It reports false, with *dst untouched, for anything else — including
// frames encoding/json accepts (another member order, whitespace, escapes,
// views, null, other key spellings), which are the caller's to pass on. A
// decoded "at" goes where dst.At points, else to atBuf — the caller's
// storage, so that a server decodes every frame's "at" into one value per
// connection — else to a new sim.Time; a frame without one leaves dst.At
// as it was.
//
//simlint:hotpath
func parseRequest(payload []byte, dst *Request, atBuf *sim.Time) bool {
	s := wirejson.Scan(payload)
	req := *dst
	if !s.Has(`{"seq":`) {
		return false
	}
	req.Seq = s.Uint()
	s.Want(`,"method":"`)
	req.Method = s.Enum(methodNames[:])
	if s.Has(`,"job_id":`) {
		req.JobID = job.ID(s.Int())
	}
	hasAt := s.Has(`,"at":`)
	var at sim.Time
	if hasAt {
		at = s.Int()
	}
	if s.Has(`,"from":"`) {
		req.From = string(s.Str())
	}
	if !s.Done() {
		return false
	}
	if hasAt {
		if req.At == nil {
			if req.At = atBuf; atBuf == nil {
				req.At = new(sim.Time)
			}
		}
		*req.At = at
	}
	*dst = req
	return true
}

// parseResponse is parseRequest for a Response.
//
//simlint:hotpath
func parseResponse(payload []byte, dst *Response) bool {
	s := wirejson.Scan(payload)
	resp := *dst
	if !s.Has(`{"seq":`) {
		return false
	}
	resp.Seq = s.Uint()
	if s.Has(`,"error":"`) {
		resp.Error = string(s.Str())
	}
	if s.Has(`,"domain":"`) {
		resp.Domain = string(s.Str())
	}
	if s.Has(`,"known":true`) {
		resp.Known = true
	}
	if s.Has(`,"status":"`) {
		resp.Status = s.Enum(statusNames[:])
	}
	if s.Has(`,"ok":true`) {
		resp.OK = true
	}
	if !s.Done() {
		return false
	}
	*dst = resp
	return true
}
