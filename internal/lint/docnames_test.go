package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A test, benchmark or fuzz target as a document cites it; a trailing
	// `*` or `…` makes the name a prefix.
	citedName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*|…)?`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocsCiteLiveTests: every Test…/Benchmark…/Fuzz… identifier that
// README.md, DESIGN.md or ARCHITECTURE.md names must be a function in some
// _test.go of the tree, so a deleted or renamed test takes its citation
// with it. EXPERIMENTS.md is exempt: it keeps historical names, marked as
// such.
func TestDocsCiteLiveTests(t *testing.T) {
	const root = "../.."
	var funcs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("found no test functions under " + root)
	}
	exists := func(name string, prefix bool) bool {
		for _, f := range funcs {
			if f == name || prefix && strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range citedName.FindAllStringSubmatch(line, -1) {
				if !exists(m[1], m[2] != "") {
					t.Errorf("%s:%d cites %s, which is no test function in the tree", doc, i+1, m[0])
				}
			}
		}
	}
}
