// Package wirejson is the kit the hand-written JSON codecs of this
// repository are built from: proto's Request and Response, live's admin
// frames, journal's write-ahead entries and snapshots. None of those codecs
// is a format of its own. encoding/json defines the bytes; a codec built
// here is a fast path inside that definition, held to one rule:
//
//   - an encoder appends exactly json.Marshal's bytes, and reports false —
//     leaving the value to encoding/json — for anything it cannot write
//     verbatim: a string holding a byte that is not Plain;
//   - a parser reads a payload the way the encoder writes it, member by
//     member in struct order, each key matched against the encoder's
//     literal: every member json.Marshal always writes present, an
//     omitempty one present or absent; no whitespace; plain decimal
//     integers in range; a bool as the true an omitempty member writes;
//     strings of Plain bytes; a non-empty mates array of
//     {"Domain":…,"Job":…} objects; nothing after the closing brace. It
//     reports false for every other payload — members in another order, a
//     key met twice, a spelling json.Marshal does not write — which then
//     goes, untouched, to json.Unmarshal and is accepted, rejected and
//     decoded as it always has been.
//
// So a reader or writer with a codec and one without interoperate byte for
// byte, and every codec is tested differentially against encoding/json
// (FuzzFrameCodec, FuzzAdminCodec, FuzzEntryCodec, FuzzSnapshotCodec).
package wirejson

import (
	"encoding/binary"
	"math"
	"strconv"
	"unsafe"

	"cosched/internal/job"
)

// Plain reports whether c stands for itself inside a JSON string both ways:
// json.Marshal writes it verbatim (no escape, no HTML escape) and
// json.Unmarshal reads it verbatim.
func Plain(c byte) bool { return plain[c] }

// plain is Plain as a table: printable ASCII but `"`, `\`, `<`, `>` and
// `&`. One load per byte instead of seven comparisons, on every string an
// encoder checks and every string a Scanner reads.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// PlainString reports whether every byte of s is Plain.
func PlainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return false
		}
	}
	return true
}

// The appenders below each write one member: key is everything up to the
// value — `,"name":` for a number, `,"name":"` with the opening quote for a
// string — so the first member's key carries the opening brace. Strings
// must have passed PlainString. The Omit forms are `omitempty`: nothing for
// the zero value.

// AppendUint appends key and v.
func AppendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

// AppendInt appends key and v.
func AppendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// AppendOmitInt appends key and v unless v is 0.
func AppendOmitInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return AppendInt(b, key, v)
}

// AppendStr appends key, s and the closing quote.
func AppendStr(b []byte, key, s string) []byte {
	b = append(b, key...)
	b = append(b, s...)
	return append(b, '"')
}

// AppendOmitStr appends key, s and the closing quote unless s is empty.
func AppendOmitStr(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return AppendStr(b, key, s)
}

// AppendOmitTrue appends member — a whole `,"name":true` — if v is set.
func AppendOmitTrue(b []byte, member string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, member...)
}

// AppendOmitMates appends key and mates as json.Marshal writes a
// []job.MateRef — `[{"Domain":"B","Job":7},…]` — or nothing for an empty
// slice. It reports false for a domain name that is not plain.
//
//simlint:hotpath
func AppendOmitMates(b []byte, key string, mates []job.MateRef) ([]byte, bool) {
	if len(mates) == 0 {
		return b, true
	}
	b = append(b, key...) //simlint:allow R6 amortized growth of the caller's buffer, which every caller reuses
	sep := `[{"Domain":"`
	for i := range mates {
		if !PlainString(mates[i].Domain) {
			return b, false
		}
		b = AppendStr(b, sep, mates[i].Domain)
		b = AppendInt(b, `,"Job":`, int64(mates[i].Job))
		sep = `},{"Domain":"`
	}
	return append(b, `}]`...), true //simlint:allow R6 amortized growth of the caller's buffer, which every caller reuses
}

// Scanner reads a payload the way its encoder wrote it: member by member
// in struct order, each key matched against the encoder's literal (Has for
// an omitempty member, Want for one json.Marshal always writes), values in
// the canonical shape (no whitespace, escape-free ASCII strings, plain
// decimal integers). The first byte outside that shape makes it bad, which
// every later step preserves, so a parse checks Done once at the end.
type Scanner struct {
	b   []byte
	i   int
	bad bool
}

// Scan starts at payload's first byte: the parser's first literal carries
// the opening brace with the first key.
func Scan(payload []byte) Scanner { return Scanner{b: payload} }

// Has consumes lit — the bytes an encoder writes before a value, such as
// `,"job_id":`, or a whole member such as `,"ok":true` — if the input
// continues with it. It inlines, so lit is a constant at the call site: a
// literal of 8 to 16 bytes is compared as two overlapping 8-byte words
// whose literal halves the compiler folds into constants, any other as a
// string.
func (s *Scanner) Has(lit string) (ok bool) {
	rest, n := s.b[s.i:], len(lit)
	if len(rest) >= n {
		if uint(n-8) > 8 {
			ok = string(rest[:n]) == lit
		} else {
			ok = binary.LittleEndian.Uint64(rest) == word(lit, 0) && binary.LittleEndian.Uint64(rest[n-8:]) == word(lit, n-8)
		}
		if ok {
			s.i += n
		}
	}
	return ok
}

// word is the 8 bytes of lit from off, as binary.LittleEndian reads them;
// for a constant lit the compiler folds it into a constant.
func word(lit string, off int) uint64 {
	return *(*uint64)(unsafe.Add(unsafe.Pointer(unsafe.StringData(lit)), off))
}

// Want is Has for bytes the encoder always writes — the key of a member
// without omitempty, a nested object's closing brace — whose absence puts
// the input outside the shape. It is a call, not inlined: a parser checks
// its first key with Has, returning at once without it, and leaves its
// closing brace to Done.
func (s *Scanner) Want(lit string) {
	if !s.Has(lit) {
		s.bad = true
	}
}

// Done reports whether the object parsed up to its closing brace and that
// brace is the payload's last byte.
func (s *Scanner) Done() bool { return !s.bad && s.i == len(s.b)-1 && s.b[s.i] == '}' }

// Str consumes the rest of a string literal, whose opening quote the key
// carried: plain bytes up to the closing quote. It returns them, aliasing
// the input. The closing quote is not Plain, so the loop tests one table
// entry per byte and looks closer only at the byte that stops it.
func (s *Scanner) Str() []byte {
	rest := s.b[s.i:]
	for n, c := range rest {
		if plain[c] {
			continue
		}
		if c == '"' {
			s.i += n + 1
			return rest[:n]
		}
		break
	}
	s.bad = true
	return nil
}

// Enum is Str for an enumerated value expected to be one of names: a name
// followed by the closing quote is matched as a literal and returned as
// names' own string, so a steady-state frame decodes its method, status, op
// or state without allocating; any other string is copied.
func (s *Scanner) Enum(names []string) string {
	rest := s.b[s.i:]
	for _, name := range names {
		if len(rest) > len(name) && rest[len(name)] == '"' && string(rest[:len(name)]) == name {
			s.i += len(name) + 1
			return name
		}
	}
	return string(s.Str())
}

// safeDigits is how many decimal digits always fit a uint64
// (math.MaxUint64 has 20).
const safeDigits = 19

// Uint consumes digits: no sign, no leading zero, no fraction or exponent
// (the byte after the digits is left for the next literal to reject),
// within uint64. The first safeDigits digits cannot overflow, so only a
// longer number pays for the check.
func (s *Scanner) Uint() uint64 {
	rest, v, n := s.b[s.i:], uint64(0), 0
	for ; n < len(rest) && n < safeDigits && rest[n]-'0' <= 9; n++ {
		v = v*10 + uint64(rest[n]-'0')
	}
	for ; n < len(rest) && rest[n]-'0' <= 9; n++ {
		d := uint64(rest[n] - '0')
		if v > (math.MaxUint64-d)/10 {
			s.bad = true
			return 0
		}
		v = v*10 + d
	}
	if n == 0 || n > 1 && rest[0] == '0' {
		s.bad = true
	}
	s.i += n
	return v
}

// Int consumes an optionally negative integer within int64.
func (s *Scanner) Int() int64 {
	neg := s.Has("-")
	v := s.Uint()
	if neg && v <= -math.MinInt64 {
		return -int64(v)
	}
	if neg || v > math.MaxInt64 {
		s.bad = true
	}
	return int64(v)
}

// IntN is Int for a member of Go type int, whose range encoding/json
// enforces where int is narrower than int64.
func (s *Scanner) IntN() int {
	v := s.Int()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

// Mates consumes what AppendOmitMates writes after its key: a non-empty
// array of {"Domain":…,"Job":…} objects. The slice is new on every call, so
// the caller may keep it.
func (s *Scanner) Mates() []job.MateRef { return s.MatesInto(nil, nil) }

// MatesInto is Mates decoding into dst[:0], reusing its array as
// json.Unmarshal reuses a slice's, with each domain name interned in
// *domains (see InternAdd) unless domains is nil. The result aliases dst's
// array: a caller that keeps it copies it.
//
//simlint:hotpath
func (s *Scanner) MatesInto(dst []job.MateRef, domains *[]string) []job.MateRef {
	mates := dst[:0]
	for sep := `[{"Domain":"`; s.Has(sep); sep = `},{"Domain":"` {
		var m job.MateRef
		if domains != nil {
			m.Domain = InternAdd(s.Str(), domains)
		} else {
			m.Domain = string(s.Str())
		}
		s.Want(`,"Job":`)
		m.Job = job.ID(s.Int())
		mates = append(mates, m) //simlint:allow R6 amortized growth of dst, which a decoder reusing it grows once; one allocation for a kept pair's single mate
	}
	if len(mates) == 0 {
		s.bad = true // json.Marshal omits an empty slice; `[]` decodes to a non-nil one
	}
	s.Want(`}]`)
	return mates
}

// StateNames are the names of job.State, for Enum: the state a frame or a
// snapshot record carries is expected to be one of them.
var StateNames = func() (names [job.Cancelled + 1]string) {
	for st := range names {
		names[st] = job.State(st).String()
	}
	return names
}()

// maxInterned bounds a table InternAdd grows: names past it are still
// decoded, each copied afresh.
const maxInterned = 16

// InternAdd returns names' copy of b if it is one of them, over a table the
// caller keeps and InternAdd grows: b not yet in *names is copied once and
// added while the table has room, so a decoder that keeps meeting the same
// few names — a connection naming its mates' domains — decodes them without
// allocating.
//
//simlint:hotpath
func InternAdd(b []byte, names *[]string) string {
	for _, name := range *names {
		if name == string(b) {
			return name
		}
	}
	name := string(b)
	if len(*names) < maxInterned {
		*names = append(*names, name) //simlint:allow R6 bounded growth of the caller's table, at most maxInterned names
	}
	return name
}
