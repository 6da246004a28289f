package lint

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"go/token"
)

// fixturePath is the synthetic import path fixtures are checked under: it
// must look sim-pure so R2 is active, and R7's raw-file checks treat
// internal/fixture as in scope so its fixture exercises them.
const fixturePath = "cosched/internal/fixture"

var (
	tableOnce sync.Once
	tableVal  map[string]*Package
	tableErr  error
)

// repoTable loads the repository's package table (with compiler export
// data) once per test binary; fixtures resolve their imports against it.
func repoTable(t *testing.T) map[string]*Package {
	t.Helper()
	tableOnce.Do(func() {
		tableVal, _, tableErr = Load("../..", nil, "./...")
	})
	if tableErr != nil {
		t.Fatalf("loading repo packages: %v", tableErr)
	}
	return tableVal
}

// checkFixtureAll type-checks one testdata file as its own package under
// the sim-pure fixture path and runs every rule plus allow marking.
// Allowed findings stay in the result.
func checkFixtureAll(t *testing.T, name string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	target := &Package{
		ImportPath: fixturePath,
		Path:       fixturePath,
		Files:      []string{"testdata/" + name},
	}
	files, pkg, info, err := typecheck(fset, target, repoTable(t))
	if err != nil {
		t.Fatalf("typechecking %s: %v", name, err)
	}
	out := checkUnit(fset, &unit{target: target, files: files, pkg: pkg, info: info})
	sortFindings(out)
	return out
}

// checkFixture is checkFixtureAll minus allow-suppressed findings — the
// view Run gives the CLI.
func checkFixture(t *testing.T, name string) []Finding {
	t.Helper()
	var active []Finding
	for _, f := range checkFixtureAll(t, name) {
		if !f.Allowed {
			active = append(active, f)
		}
	}
	return active
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants reads the fixture's `// want "substring"` expectations,
// keyed by 1-based line number.
func parseWants(t *testing.T, path string) map[int]string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int]string)
	for i, line := range strings.Split(string(src), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			wants[i+1] = m[1]
		}
	}
	return wants
}

// TestRuleFixtures is the golden harness: every `// want` line must
// produce a matching finding, and no finding may appear on a line
// without one. Deleting or de-fanging a rule fails its fixture.
func TestRuleFixtures(t *testing.T) {
	for _, name := range []string{
		"r1.go", "r2.go", "r5.go", "r6.go", "r7.go",
	} {
		t.Run(name, func(t *testing.T) {
			findings := checkFixture(t, name)
			wants := parseWants(t, "testdata/"+name)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no // want expectations", name)
			}
			matched := make(map[int]bool)
			for _, f := range findings {
				text := fmt.Sprintf("%s: %s", f.Rule, f.Msg)
				if sub, ok := wants[f.Pos.Line]; ok && strings.Contains(text, sub) {
					matched[f.Pos.Line] = true
					continue
				}
				t.Errorf("unexpected finding: %s", f)
			}
			for line, sub := range wants {
				if !matched[line] {
					t.Errorf("%s:%d: no finding matching %q", name, line, sub)
				}
			}
		})
	}
}

// TestAllowHygieneFixture pins the directive hygiene findings: the
// reasonless directive suppresses its violation but is reported for the
// missing reason, and the no-op directive is reported as stale.
// Expectations live here because a //simlint:allow line comment cannot
// also carry a // want comment.
func TestAllowHygieneFixture(t *testing.T) {
	findings := checkFixture(t, "allow.go")
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(findings), findingList(findings))
	}
	var noReason, stale bool
	for _, f := range findings {
		if f.Rule != "allow" {
			t.Errorf("finding escaped allow filtering: %s", f)
		}
		noReason = noReason || strings.Contains(f.Msg, "no reason")
		stale = stale || strings.Contains(f.Msg, "stale")
	}
	if !noReason || !stale {
		t.Errorf("missing hygiene finding (no-reason=%v stale=%v):\n%s", noReason, stale, findingList(findings))
	}
}

// TestAllowedFindingsMarked pins the RunAll contract -json relies on:
// a suppressed finding survives with Allowed set and the directive's
// reason attached.
func TestAllowedFindingsMarked(t *testing.T) {
	all := checkFixtureAll(t, "allow.go")
	var marked int
	for _, f := range all {
		if f.Allowed {
			marked++
			if f.Rule == "allow" {
				t.Errorf("hygiene finding marked allowed: %s", f)
			}
		}
	}
	if marked == 0 {
		t.Fatalf("no allowed findings retained:\n%s", findingList(all))
	}
}

// TestCleanFixture guards against over-reporting: the sanctioned shapes
// must produce nothing.
func TestCleanFixture(t *testing.T) {
	if findings := checkFixture(t, "clean.go"); len(findings) > 0 {
		t.Errorf("clean fixture produced findings:\n%s", findingList(findings))
	}
}

// TestRepoSelfCheck is the dogfood gate inside the test suite: the tree
// that ships this analyzer must itself be clean, under both the default
// and the debug build tags. RunAll on the same tree must agree with Run
// on the active subset — allows only mark, never drop silently — and a
// second run must be byte-identical to the first (the parallel
// typecheck/rule fan-out may not perturb finding order).
//
// It also checks the admission rule of rules.go: every rule in the catalog
// has a finding in the tree today, or an entry in historicalDefects.
func TestRepoSelfCheck(t *testing.T) {
	for _, tags := range [][]string{nil, {"debug"}} {
		findings, err := Run("../..", tags, "./...")
		if err != nil {
			t.Fatalf("simlint run (tags=%v): %v", tags, err)
		}
		if len(findings) > 0 {
			t.Errorf("repository is not simlint-clean (tags=%v):\n%s", tags, findingList(findings))
		}
	}
	all, err := RunAll("../..", nil, "./...")
	if err != nil {
		t.Fatalf("simlint RunAll: %v", err)
	}
	var active int
	fired := make(map[string]bool)
	for _, f := range all {
		fired[f.Rule] = true
		if !f.Allowed {
			active++
		}
		if f.Allowed && f.Reason == "" {
			t.Errorf("allowed finding with empty reason: %s", f)
		}
	}
	if active > 0 {
		t.Errorf("RunAll reports %d active findings on a clean tree", active)
	}
	if len(all) == 0 {
		t.Error("RunAll retained no allowed findings — the tree carries //simlint:allow directives")
	}
	for _, r := range Rules {
		if !fired[r.ID] && historicalDefects[r.ID] == "" {
			t.Errorf("%s (%s) has no finding in the tree and no entry in historicalDefects: a rule that catches nothing here and never did is deleted, not kept", r.ID, r.Title)
		}
	}
	again, err := RunAll("../..", nil, "./...")
	if err != nil {
		t.Fatalf("simlint RunAll (second run): %v", err)
	}
	if !reflect.DeepEqual(all, again) {
		t.Error("two identical RunAll invocations disagree — parallel pipeline is nondeterministic")
	}
}

// historicalDefects names, for a rule with no finding in the tree today,
// the defect of this repo's history it would have caught and the fixture
// function that reproduces its shape.
var historicalDefects = map[string]string{
	"R1": "PR 2: coupled.New ranged the traces map while scheduling submissions, flipping proportion-sweep cells between runs (testdata/r1.go mapRangeSchedule)",
}

// TestJSONRoundTrip pins the -json schema: encode → decode is lossless
// and the encoder preserves the engine's stable order.
func TestJSONRoundTrip(t *testing.T) {
	in := []Finding{
		{Rule: "R7", Msg: "discarded error", Allowed: false},
		{Rule: "R2", Msg: "time.Now in a sim-pure package", Allowed: true, Reason: "wire I/O deadline"},
	}
	in[0].Pos.Filename, in[0].Pos.Line, in[0].Pos.Column = "a/b.go", 10, 2
	in[1].Pos.Filename, in[1].Pos.Line, in[1].Pos.Column = "a/c.go", 3, 1
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

// TestSortFindingsStable pins the global order -json diffs rely on:
// filename, then line, column, rule, message.
func TestSortFindingsStable(t *testing.T) {
	mk := func(file string, line, col int, rule string) Finding {
		f := Finding{Rule: rule}
		f.Pos.Filename, f.Pos.Line, f.Pos.Column = file, line, col
		return f
	}
	got := []Finding{
		mk("b.go", 1, 1, "R2"), mk("a.go", 9, 1, "R1"),
		mk("a.go", 2, 5, "R7"), mk("a.go", 2, 5, "R5"), mk("a.go", 2, 1, "R6"),
	}
	sortFindings(got)
	want := []Finding{
		mk("a.go", 2, 1, "R6"), mk("a.go", 2, 5, "R5"),
		mk("a.go", 2, 5, "R7"), mk("a.go", 9, 1, "R1"), mk("b.go", 1, 1, "R2"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sort order wrong:\n%s", findingList(got))
	}
}

func findingList(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}
