package live

import (
	"encoding/json"
	"fmt"

	"cosched/internal/job"
	"cosched/internal/proto"
	"cosched/internal/wirejson"
)

// The reflection-free codec for the admin frames, built from
// internal/wirejson and held to its rule: encoding/json's bytes, read back
// member by member in the order they are written, everything else left to
// encoding/json. proto.WriteFrame and FrameReader.ReadFrame find it through
// proto.FrameCodec.
var (
	_ proto.FrameCodec = (*AdminRequest)(nil)
	_ proto.FrameCodec = (*AdminResponse)(nil)
)

// opNames are the strings a decoded request's op is expected to be (see
// wirejson.Scanner.Enum).
var opNames = [...]string{OpSubmit, OpExpect, OpStatus, OpCancel, OpInfo}

// AppendFrame implements proto.FrameCodec.
//
//simlint:hotpath
func (r *AdminRequest) AppendFrame(b []byte) ([]byte, bool) {
	if r == nil || !wirejson.PlainString(r.Op) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendStr(b, `,"op":"`, r.Op)
	if w := r.Job; w != nil {
		if !wirejson.PlainString(w.Name) {
			return b, false
		}
		b = wirejson.AppendInt(b, `,"job":{"id":`, int64(w.ID))
		b = wirejson.AppendOmitStr(b, `,"name":"`, w.Name)
		b = wirejson.AppendOmitInt(b, `,"user":`, int64(w.User))
		b = wirejson.AppendInt(b, `,"nodes":`, int64(w.Nodes))
		b = wirejson.AppendInt(b, `,"runtime_seconds":`, w.Runtime)
		b = wirejson.AppendInt(b, `,"walltime_seconds":`, w.Walltime)
		var ok bool
		if b, ok = wirejson.AppendOmitMates(b, `,"mates":`, w.Mates); !ok {
			return b, false
		}
		b = append(b, '}') //simlint:allow R6 amortized growth of the frame buffer, which proto pools
	}
	b = wirejson.AppendOmitInt(b, `,"job_id":`, int64(r.JobID))
	return append(b, '}'), true //simlint:allow R6 amortized growth of the frame buffer, which proto pools
}

// ParseFrame implements proto.FrameCodec: members the payload omits keep
// their value, the job's included, as with json.Unmarshal.
//
//simlint:hotpath
func (r *AdminRequest) ParseFrame(payload []byte) bool {
	if r == nil {
		return false
	}
	req := *r
	var w WireJob
	if r.Job != nil {
		w = *r.Job
	}
	hasJob, ok := parseAdminRequest(payload, &req, &w, nil, nil)
	if !ok {
		return false
	}
	if hasJob {
		if req.Job == nil {
			req.Job = new(WireJob)
		}
		*req.Job = w
	}
	*r = req
	return true
}

// adminScratch is what serveConn decodes its connection's requests into:
// one request, the one WireJob a submit or expect fills, the array its mates
// decode into and the domain names they have named. A decoded request
// aliases all of it until the next frame, so whoever keeps a slice of it
// copies the slice (AdminServer.expect copies the mates).
type adminScratch struct {
	req     AdminRequest
	job     WireJob
	mates   []job.MateRef
	domains []string
}

// decode sets s.req to payload decoded as json.Unmarshal decodes it into a
// zero AdminRequest; a canonical payload decodes without allocating once
// the connection has seen its mates' domains.
//
//simlint:hotpath
func (s *adminScratch) decode(payload []byte) error {
	s.req, s.job = AdminRequest{}, WireJob{}
	hasJob, ok := parseAdminRequest(payload, &s.req, &s.job, s.mates, &s.domains)
	if !ok {
		s.req = AdminRequest{}
		if err := json.Unmarshal(payload, &s.req); err != nil {
			return fmt.Errorf("admin: unmarshal: %w", err)
		}
		return nil
	}
	if hasJob {
		s.req.Job = &s.job
		if s.job.Mates != nil {
			s.mates = s.job.Mates // keep the array, grown or not
		}
	}
	return nil
}

// parseAdminRequest decodes what AppendFrame writes — members in struct
// order, each as json.Marshal spells it — into *req as json.Unmarshal
// would, except that a "job" member decodes into *w, whatever req.Job
// points at, and the job's mates into mates' array with their domain names
// interned in *domains (see wirejson.Scanner.MatesInto). It reports
// whether the payload carried a job; ok is false for every other payload,
// which leaves *req untouched and *w in any state.
//
//simlint:hotpath
func parseAdminRequest(payload []byte, req *AdminRequest, w *WireJob, mates []job.MateRef, domains *[]string) (hasJob, ok bool) {
	s := wirejson.Scan(payload)
	r := *req
	if !s.Has(`{"seq":`) {
		return false, false
	}
	r.Seq = s.Uint()
	s.Want(`,"op":"`)
	r.Op = s.Enum(opNames[:])
	if hasJob = s.Has(`,"job":{"id":`); hasJob {
		parseWireJob(&s, w, mates, domains)
	}
	if s.Has(`,"job_id":`) {
		r.JobID = job.ID(s.Int())
	}
	if !s.Done() {
		return false, false
	}
	*req = r
	return hasJob, true
}

// parseWireJob consumes the object a request's "job" member holds, past its
// opening `{"id":`.
//
//simlint:hotpath
func parseWireJob(s *wirejson.Scanner, w *WireJob, mates []job.MateRef, domains *[]string) {
	w.ID = job.ID(s.Int())
	if s.Has(`,"name":"`) {
		w.Name = string(s.Str())
	}
	if s.Has(`,"user":`) {
		w.User = s.IntN()
	}
	s.Want(`,"nodes":`)
	w.Nodes = s.IntN()
	s.Want(`,"runtime_seconds":`)
	w.Runtime = s.Int()
	s.Want(`,"walltime_seconds":`)
	w.Walltime = s.Int()
	if s.Has(`,"mates":`) {
		w.Mates = s.MatesInto(mates, domains)
	}
	s.Want(`}`)
}

// AppendFrame implements proto.FrameCodec.
//
//simlint:hotpath
func (r *AdminResponse) AppendFrame(b []byte) ([]byte, bool) {
	if r == nil || !wirejson.PlainString(r.Error) || !wirejson.PlainString(r.State) || !wirejson.PlainString(r.Domain) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendOmitStr(b, `,"error":"`, r.Error)
	b = wirejson.AppendOmitStr(b, `,"state":"`, r.State)
	b = wirejson.AppendOmitInt(b, `,"start_time":`, r.StartTime)
	b = wirejson.AppendOmitTrue(b, `,"started":true`, r.Started)
	b = wirejson.AppendOmitStr(b, `,"domain":"`, r.Domain)
	b = wirejson.AppendOmitInt(b, `,"nodes":`, int64(r.Nodes))
	b = wirejson.AppendOmitInt(b, `,"free":`, int64(r.Free))
	b = wirejson.AppendOmitInt(b, `,"virtual_now":`, r.VirtualNow)
	return append(b, '}'), true //simlint:allow R6 amortized growth of the frame buffer, which proto pools
}

// ParseFrame implements proto.FrameCodec.
//
//simlint:hotpath
func (r *AdminResponse) ParseFrame(payload []byte) bool {
	if r == nil {
		return false
	}
	s := wirejson.Scan(payload)
	resp := *r
	if !s.Has(`{"seq":`) {
		return false
	}
	resp.Seq = s.Uint()
	if s.Has(`,"error":"`) {
		resp.Error = string(s.Str())
	}
	if s.Has(`,"state":"`) {
		resp.State = s.Enum(wirejson.StateNames[:])
	}
	if s.Has(`,"start_time":`) {
		resp.StartTime = s.Int()
	}
	if s.Has(`,"started":true`) {
		resp.Started = true
	}
	if s.Has(`,"domain":"`) {
		resp.Domain = string(s.Str())
	}
	if s.Has(`,"nodes":`) {
		resp.Nodes = s.IntN()
	}
	if s.Has(`,"free":`) {
		resp.Free = s.IntN()
	}
	if s.Has(`,"virtual_now":`) {
		resp.VirtualNow = s.Int()
	}
	if !s.Done() {
		return false
	}
	*r = resp
	return true
}
