package journal

import (
	"cosched/internal/job"
	"cosched/internal/wirejson"
)

// The reflection-free codec for write-ahead entries and snapshots, built
// from internal/wirejson and held to its rule: encoding/json's bytes, read
// back member by member in the order they are written, everything else left
// to encoding/json (see the package comment for who calls what). The
// parsers fill a zero destination, which is all their callers hand them,
// and may leave it partly filled when they refuse a payload.

// opNames are the strings a decoded entry's op is expected to be (see
// wirejson.Scanner.Enum).
var opNames = [...]string{
	string(OpExpect), string(OpSubmit), string(OpStart), string(OpHold), string(OpRehold),
	string(OpYield), string(OpRelease), string(OpComplete), string(OpCancel), string(OpPeerDecision),
}

// appendEntry appends json.Marshal(e) to b, or reports false, having
// appended nothing a caller may keep, for an entry with a string that needs
// an escape.
//
//simlint:hotpath
func appendEntry(b []byte, e *Entry) ([]byte, bool) {
	if !wirejson.PlainString(string(e.Op)) || !wirejson.PlainString(e.Name) || !wirejson.PlainString(e.Method) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, e.Seq)
	b = wirejson.AppendInt(b, `,"t":`, e.T)
	b = wirejson.AppendStr(b, `,"op":"`, string(e.Op))
	b = wirejson.AppendOmitInt(b, `,"job":`, int64(e.Job))
	b = wirejson.AppendOmitStr(b, `,"name":"`, e.Name)
	b = wirejson.AppendOmitInt(b, `,"user":`, int64(e.User))
	b = wirejson.AppendOmitInt(b, `,"nodes":`, int64(e.Nodes))
	b = wirejson.AppendOmitInt(b, `,"runtime":`, e.Runtime)
	b = wirejson.AppendOmitInt(b, `,"walltime":`, e.Walltime)
	b = wirejson.AppendOmitInt(b, `,"submit":`, e.Submit)
	var ok bool
	if b, ok = wirejson.AppendOmitMates(b, `,"mates":`, e.Mates); !ok {
		return b, false
	}
	b = wirejson.AppendOmitInt(b, `,"start":`, e.Start)
	b = wirejson.AppendOmitTrue(b, `,"ready":true`, e.Ready)
	b = wirejson.AppendOmitInt(b, `,"ready_at":`, e.ReadyAt)
	b = wirejson.AppendOmitInt(b, `,"yields":`, int64(e.Yields))
	b = wirejson.AppendOmitInt(b, `,"holds":`, int64(e.Holds))
	b = wirejson.AppendOmitInt(b, `,"held_ns":`, e.HeldNS)
	b = wirejson.AppendOmitInt(b, `,"hold_start":`, e.HoldStart)
	b = wirejson.AppendOmitStr(b, `,"method":"`, e.Method)
	b = wirejson.AppendOmitTrue(b, `,"ok":true`, e.OK)
	return append(b, '}'), true //simlint:allow R6 amortized growth of the record buffer, which the store reuses
}

// parseEntry decodes what appendEntry writes — members in struct order,
// each as json.Marshal spells it — into the zero *e as json.Unmarshal
// would, or reports false.
//
//simlint:hotpath
func parseEntry(payload []byte, e *Entry) bool {
	s := wirejson.Scan(payload)
	if !s.Has(`{"seq":`) {
		return false
	}
	e.Seq = s.Uint()
	s.Want(`,"t":`)
	e.T = s.Int()
	s.Want(`,"op":"`)
	e.Op = Op(s.Enum(opNames[:]))
	if s.Has(`,"job":`) {
		e.Job = job.ID(s.Int())
	}
	if s.Has(`,"name":"`) {
		e.Name = string(s.Str())
	}
	if s.Has(`,"user":`) {
		e.User = s.IntN()
	}
	if s.Has(`,"nodes":`) {
		e.Nodes = s.IntN()
	}
	if s.Has(`,"runtime":`) {
		e.Runtime = s.Int()
	}
	if s.Has(`,"walltime":`) {
		e.Walltime = s.Int()
	}
	if s.Has(`,"submit":`) {
		e.Submit = s.Int()
	}
	if s.Has(`,"mates":`) {
		e.Mates = s.Mates()
	}
	if s.Has(`,"start":`) {
		e.Start = s.Int()
	}
	e.Ready = s.Has(`,"ready":true`)
	if s.Has(`,"ready_at":`) {
		e.ReadyAt = s.Int()
	}
	if s.Has(`,"yields":`) {
		e.Yields = s.IntN()
	}
	if s.Has(`,"holds":`) {
		e.Holds = s.IntN()
	}
	if s.Has(`,"held_ns":`) {
		e.HeldNS = s.Int()
	}
	if s.Has(`,"hold_start":`) {
		e.HoldStart = s.Int()
	}
	if s.Has(`,"method":"`) {
		e.Method = string(s.Str())
	}
	e.OK = s.Has(`,"ok":true`)
	return s.Done()
}

// appendSnapshot is appendEntry for a snapshot. A nil job table, which
// json.Marshal writes as null, is left to it.
//
//simlint:hotpath
func appendSnapshot(b []byte, snap *Snapshot) ([]byte, bool) {
	if snap.Jobs == nil || !wirejson.PlainString(snap.Domain) {
		return b, false
	}
	b = wirejson.AppendStr(b, `{"domain":"`, snap.Domain)
	b = wirejson.AppendUint(b, `,"seq":`, snap.Seq)
	b = wirejson.AppendInt(b, `,"t":`, snap.T)
	sep := `,"jobs":[{"id":`
	for i := range snap.Jobs {
		r := &snap.Jobs[i]
		if !wirejson.PlainString(r.Name) || !wirejson.PlainString(r.State) {
			return b, false
		}
		b = wirejson.AppendInt(b, sep, int64(r.ID))
		sep = `,{"id":`
		b = wirejson.AppendOmitStr(b, `,"name":"`, r.Name)
		b = wirejson.AppendOmitInt(b, `,"user":`, int64(r.User))
		b = wirejson.AppendInt(b, `,"nodes":`, int64(r.Nodes))
		b = wirejson.AppendInt(b, `,"runtime":`, r.Runtime)
		b = wirejson.AppendInt(b, `,"walltime":`, r.Walltime)
		b = wirejson.AppendInt(b, `,"submit":`, r.Submit)
		var ok bool
		if b, ok = wirejson.AppendOmitMates(b, `,"mates":`, r.Mates); !ok {
			return b, false
		}
		b = wirejson.AppendStr(b, `,"state":"`, r.State)
		b = wirejson.AppendOmitInt(b, `,"start":`, r.Start)
		b = wirejson.AppendOmitInt(b, `,"end":`, r.End)
		b = wirejson.AppendOmitInt(b, `,"hold_start":`, r.HoldStart)
		b = wirejson.AppendOmitInt(b, `,"yields":`, int64(r.Yields))
		b = wirejson.AppendOmitInt(b, `,"holds":`, int64(r.Holds))
		b = wirejson.AppendOmitInt(b, `,"held_ns":`, r.HeldNS)
		b = wirejson.AppendOmitTrue(b, `,"ready":true`, r.Ready)
		b = wirejson.AppendOmitInt(b, `,"ready_at":`, r.ReadyAt)
		b = append(b, '}') //simlint:allow R6 amortized growth of the snapshot buffer, which the store reuses
	}
	if len(snap.Jobs) == 0 {
		b = append(b, `,"jobs":[`...) //simlint:allow R6 amortized growth of the snapshot buffer, which the store reuses
	}
	return append(b, `]}`...), true //simlint:allow R6 amortized growth of the snapshot buffer, which the store reuses
}

// parseSnapshot is parseEntry for a snapshot.
//
//simlint:hotpath
func parseSnapshot(data []byte, snap *Snapshot) bool {
	s := wirejson.Scan(data)
	if !s.Has(`{"domain":"`) {
		return false
	}
	snap.Domain = string(s.Str())
	s.Want(`,"seq":`)
	snap.Seq = s.Uint()
	s.Want(`,"t":`)
	snap.T = s.Int()
	s.Want(`,"jobs":[`)
	snap.Jobs = []JobRecord{} // `[]` decodes to an empty table, not a nil one
	for sep := `{"id":`; s.Has(sep); sep = `,{"id":` {
		snap.Jobs = append(snap.Jobs, JobRecord{}) //simlint:allow R6 amortized growth of the job table being read back
		parseJobRecord(&s, &snap.Jobs[len(snap.Jobs)-1])
	}
	s.Want(`]`)
	return s.Done()
}

// parseJobRecord consumes one object of a snapshot's job table, past its
// opening `{"id":`, into the zero *r.
//
//simlint:hotpath
func parseJobRecord(s *wirejson.Scanner, r *JobRecord) {
	r.ID = job.ID(s.Int())
	if s.Has(`,"name":"`) {
		r.Name = string(s.Str())
	}
	if s.Has(`,"user":`) {
		r.User = s.IntN()
	}
	s.Want(`,"nodes":`)
	r.Nodes = s.IntN()
	s.Want(`,"runtime":`)
	r.Runtime = s.Int()
	s.Want(`,"walltime":`)
	r.Walltime = s.Int()
	s.Want(`,"submit":`)
	r.Submit = s.Int()
	if s.Has(`,"mates":`) {
		r.Mates = s.Mates()
	}
	s.Want(`,"state":"`)
	r.State = s.Enum(wirejson.StateNames[:])
	if s.Has(`,"start":`) {
		r.Start = s.Int()
	}
	if s.Has(`,"end":`) {
		r.End = s.Int()
	}
	if s.Has(`,"hold_start":`) {
		r.HoldStart = s.Int()
	}
	if s.Has(`,"yields":`) {
		r.Yields = s.IntN()
	}
	if s.Has(`,"holds":`) {
		r.Holds = s.IntN()
	}
	if s.Has(`,"held_ns":`) {
		r.HeldNS = s.Int()
	}
	r.Ready = s.Has(`,"ready":true`)
	if s.Has(`,"ready_at":`) {
		r.ReadyAt = s.Int()
	}
	s.Want(`}`)
}
