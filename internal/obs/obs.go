// Package obs is a dependency-free Prometheus-text-format metrics
// registry for the live daemons: counter and gauge samples rendered as the
// standard text exposition (version 0.0.4) on a /metrics endpoint. It
// exists so a coschedd fleet is scrapable by any Prometheus-compatible
// collector without pulling a client library into the module.
//
// Every series is collected: callbacks registered with Collect run at
// render time and emit point-in-time values read from the state's
// authoritative owner (peerlink.Link counters, the manager's queue depth
// under the driver lock, journal.Store.Stats). The registry holds no
// values of its own.
//
// Rendering is deterministic: families sort by metric name and series
// sort by label signature, so two renders of unchanged state are
// byte-identical (regression-tested). That determinism is what lets CI
// diff scrapes and what keeps dashboards stable across daemon restarts.
package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's exposition type.
type Kind uint8

const (
	// KindCounter is a cumulative, monotonically non-decreasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
)

// String returns the TYPE-line spelling.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Registry holds the collector callbacks.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Emitter)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{}
}

// Collect registers a callback that runs on every render and emits
// point-in-time samples. Callbacks run in registration order; the samples
// they emit are sorted, so emission order never affects output order.
func (r *Registry) Collect(fn func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Emitter receives samples from Collect callbacks during one render.
type Emitter struct {
	families map[string]*family
}

// family is one metric name: its metadata and the samples emitted for it.
type family struct {
	help    string
	kind    Kind
	samples map[string]float64 // label signature -> value
}

// Counter emits one cumulative sample. The value is the collector's
// authoritative running total (e.g. a peerlink call count); the emitter
// does not accumulate across renders.
func (e *Emitter) Counter(name, help string, v float64, labels ...string) {
	e.emit(name, help, KindCounter, v, labels)
}

// Gauge emits one point-in-time sample.
func (e *Emitter) Gauge(name, help string, v float64, labels ...string) {
	e.emit(name, help, KindGauge, v, labels)
}

// emit records one sample. Invalid names and a name emitted under two
// kinds panic: metric identity is a programming decision, not runtime
// input.
func (e *Emitter) emit(name, help string, kind Kind, v float64, labels []string) {
	mustValidName(name)
	f, ok := e.families[name]
	if !ok {
		f = &family{help: help, kind: kind, samples: map[string]float64{}}
		e.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: collected metric %s emitted as %s (was %s)", name, kind, f.kind))
	}
	f.samples[labelSignature(labels)] = v
}

// Render produces the full text exposition. Output is stable: families in
// name order, series in label-signature order, values formatted with the
// shortest round-trippable representation.
func (r *Registry) Render() []byte {
	r.mu.Lock()
	collectors := make([]func(*Emitter), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	// Collectors run without the registry lock: they take their own locks
	// (driver, link, journal store).
	em := &Emitter{families: map[string]*family{}}
	for _, fn := range collectors {
		fn(em)
	}

	names := make([]string, 0, len(em.families))
	for name := range em.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := em.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		sigs := make([]string, 0, len(f.samples))
		for sig := range f.samples {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			b.WriteString(name)
			b.WriteString(sig)
			b.WriteByte(' ')
			b.WriteString(formatValue(f.samples[sig]))
			b.WriteByte('\n')
		}
	}
	return []byte(b.String())
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.Write(r.Render())
	})
}

// ContentType is the exposition format version served by Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// formatValue renders a sample value. %g with -1 precision is the
// shortest string that parses back to the same float64, so integers stay
// integers ("42", not "42.000000") and renders are reproducible.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelSignature renders alternating key,value pairs as a canonical
// `{k1="v1",k2="v2"}` signature with keys sorted, or "" for no labels.
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		mustValidLabel(labels[i])
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(a, b int) bool { return kvs[a].k < kvs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline per the
// exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// mustValidName panics unless name is a legal metric/label identifier:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if !validIdent(name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

// mustValidLabel panics unless name is a legal label name (no colons).
func mustValidLabel(name string) {
	if !validIdent(name, false) {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

func validIdent(s string, colons bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c == ':' && colons:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
