package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRenderStableOrderAndTwiceIdentical(t *testing.T) {
	// Emit deliberately out of name order, and series out of label order,
	// from two collectors, to prove sorting is Render's job.
	first := func(e *Emitter) {
		e.Gauge("zeta_depth", "queue depth", 4, "domain", "b")
		e.Counter("alpha_total", "a counter", 2, "peer", "z")
		e.Counter("alpha_total", "a counter", 7, "peer", "a")
	}
	second := func(e *Emitter) {
		e.Gauge("zeta_depth", "queue depth", 1, "domain", "a")
		e.Gauge("middle_gauge", "collected", 3.5)
	}
	both := func(e *Emitter) { first(e); second(e) }

	one := Render(both)
	two := Render(both)
	if !bytes.Equal(one, two) {
		t.Fatalf("render not byte-identical:\n%s\nvs\n%s", one, two)
	}
	want := `# HELP alpha_total a counter
# TYPE alpha_total counter
alpha_total{peer="a"} 7
alpha_total{peer="z"} 2
# HELP middle_gauge collected
# TYPE middle_gauge gauge
middle_gauge 3.5
# HELP zeta_depth queue depth
# TYPE zeta_depth gauge
zeta_depth{domain="a"} 1
zeta_depth{domain="b"} 4
`
	if string(one) != want {
		t.Fatalf("render:\n%s\nwant:\n%s", one, want)
	}
}

// emitPanics reports whether emitting through fn panics.
func emitPanics(fn func(*Emitter)) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	Render(fn)
	return false
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, bad := range []string{"", "2bad", "has-dash", "has space"} {
		if !emitPanics(func(e *Emitter) { e.Counter(bad, "", 1) }) {
			t.Fatalf("metric name %q accepted", bad)
		}
	}
	if !emitPanics(func(e *Emitter) { e.Counter("ok_total", "", 1, "bad:label", "v") }) {
		t.Fatal("label name with colon accepted")
	}
	if !emitPanics(func(e *Emitter) { e.Counter("ok_total", "", 1, "only_key") }) {
		t.Fatal("odd label list accepted")
	}
	// Emitting a counter name as a gauge is a programming error.
	if !emitPanics(func(e *Emitter) {
		e.Counter("ops_total", "", 1, "peer", "a")
		e.Gauge("ops_total", "", 1, "peer", "b")
	}) {
		t.Fatal("kind mismatch did not panic")
	}
}

func TestLabelEscapingRoundTrips(t *testing.T) {
	hostile := "a\"b\\c\nd"
	out := Render(func(e *Emitter) { e.Gauge("esc", "help with \\ and\nnewline", 1, "k", hostile) })
	if strings.Contains(string(out), "\nd\"") {
		t.Fatalf("unescaped newline in output:\n%s", out)
	}
	scr, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("esc", "k", hostile); !ok || v != 1 {
		t.Fatalf("escaped label did not round-trip: %+v", scr.Values)
	}
}

func TestCollectedSamplesAndParse(t *testing.T) {
	calls := 0
	out := Render(func(e *Emitter) {
		calls++
		e.Counter("peer_calls_total", "calls", 42, "peer", "b")
		e.Gauge("jobs_queued", "depth", 17)
	})
	if calls != 1 {
		t.Fatalf("collector ran %d times, want 1", calls)
	}
	scr, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("peer_calls_total", "peer", "b"); !ok || v != 42 {
		t.Fatalf("peer_calls_total = %v, %v", v, ok)
	}
	if v, ok := scr.Value("jobs_queued"); !ok || v != 17 {
		t.Fatalf("jobs_queued = %v, %v", v, ok)
	}
	if scr.Types["peer_calls_total"] != KindCounter || scr.Types["jobs_queued"] != KindGauge {
		t.Fatalf("types = %+v", scr.Types)
	}
	// Label order is canonicalized, so a reordered query still hits.
	scr2, err := Parse(Render(func(e *Emitter) { e.Gauge("multi", "", 5, "b", "2", "a", "1") }))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr2.Value("multi", "a", "1", "b", "2"); !ok || v != 5 {
		t.Fatalf("canonicalized label lookup failed: %+v", scr2.Values)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric",                        // no value
		"metric{a=\"1\" 2",              // unterminated label block
		"metric nope",                   // unparsable value
		"# TYPE metric histogram",       // unsupported type
		"metric{a=\"1\"} 1 extra trail", // trailing junk
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Fatalf("Parse accepted %q", bad)
		}
	}
	// HELP lines and blank lines are skipped.
	scr, err := Parse([]byte("# HELP m h\n\nm 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("m"); !ok || v != 1 {
		t.Fatalf("simple sample lost: %+v", scr.Values)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	srv := httptest.NewServer(Handler(func(e *Emitter) { e.Counter("served_total", "requests", 5) }))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("served_total"); !ok || v != 5 {
		t.Fatalf("served_total = %v, %v", v, ok)
	}
}
