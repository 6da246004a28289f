// Package lint implements simlint, the repository's static determinism
// and contract analyzer. It loads packages with the standard toolchain
// (`go list -export`), type-checks the lint targets from source against
// compiler export data, and runs a set of repo-specific rules — each one
// derived from a real contract or a past bug (see rules.go for the
// catalog). No dependencies outside the standard library are used.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"strings"
)

// listPackage mirrors the subset of `go list -json` output the loader
// consumes. Test variants appear with bracketed import paths
// ("pkg [pkg.test]"); ForTest names the package under test.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Export     string
	ForTest    string
	Standard   bool
	Module     *struct{ Path string }
}

// Package is one loaded package: either a lint target (module source) or a
// dependency reachable only through its compiler export data.
type Package struct {
	// ImportPath is the path exactly as `go list` reports it, including
	// the "[pkg.test]" suffix on test variants.
	ImportPath string
	// Path is the import path with any test-variant suffix stripped —
	// the path rules match against.
	Path string
	Name string
	Dir  string
	// Files are the absolute paths of the package's Go sources (test
	// variants include the _test.go files).
	Files []string
	// ImportMap resolves source-literal import paths to the ImportPath
	// keys of the loaded package table (vendoring and test variants).
	ImportMap map[string]string
	// Export is the compiler export data file, used when this package is
	// imported by a lint target.
	Export   string
	Standard bool
	ForTest  string
}

// Load runs `go list -deps -test -export -json` in dir and returns the
// package table keyed by ImportPath plus the ordered list of lint targets:
// module packages, with plain packages superseded by their in-package test
// variant (which compiles the same files plus the _test.go files).
func Load(dir string, tags []string, patterns ...string) (table map[string]*Package, targets []*Package, err error) {
	args := []string{"list", "-deps", "-test", "-export", "-json"}
	if len(tags) > 0 {
		args = append(args, "-tags", strings.Join(tags, ","))
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	table = make(map[string]*Package)
	var order []string
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		p := &Package{
			ImportPath: lp.ImportPath,
			Path:       strippedPath(lp.ImportPath),
			Name:       lp.Name,
			Dir:        lp.Dir,
			ImportMap:  lp.ImportMap,
			Export:     lp.Export,
			Standard:   lp.Standard,
			ForTest:    lp.ForTest,
		}
		for _, f := range append(append([]string{}, lp.GoFiles...), lp.CgoFiles...) {
			p.Files = append(p.Files, lp.Dir+"/"+f)
		}
		if lp.Module != nil && !lp.Standard {
			// Module membership marks lint-target candidates.
			if lp.Module.Path != "" && (p.Path == lp.Module.Path || strings.HasPrefix(p.Path, lp.Module.Path+"/")) {
				order = append(order, lp.ImportPath)
			}
		}
		table[lp.ImportPath] = p
	}

	// A plain package with an in-package test variant is a strict subset
	// of that variant's files: lint only the variant. This includes main
	// packages — linting both the plain package and its variant would
	// check every non-test file twice and report findings twice.
	superseded := make(map[string]bool)
	for _, key := range order {
		p := table[key]
		if p.ForTest != "" && !strings.HasSuffix(p.Name, "_test") {
			superseded[p.ForTest] = true
		}
	}
	for _, key := range order {
		p := table[key]
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // synthesized test main
		}
		if p.ForTest == "" && superseded[p.ImportPath] {
			continue
		}
		targets = append(targets, p)
	}
	return table, targets, nil
}

// typecheckAll type-checks every lint target, fanning out across
// GOMAXPROCS: the module is 30+ packages and each target typechecks
// independently against export data (token.FileSet is documented
// concurrency-safe, and each target builds its own importer). Results
// land in target order and the first failure by target index is
// returned, so both success and error paths are deterministic.
func typecheckAll(fset *token.FileSet, targets []*Package, table map[string]*Package) ([]*unit, error) {
	units := make([]*unit, len(targets))
	errs := make([]error, len(targets))
	parallelEach(len(targets), func(i int) {
		t := targets[i]
		files, pkg, info, err := typecheck(fset, t, table)
		if err != nil {
			errs[i] = err
			return
		}
		units[i] = &unit{target: t, files: files, pkg: pkg, info: info}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return units, nil
}

// strippedPath removes the " [pkg.test]" variant suffix and the "_test"
// external-test suffix from an import path, yielding the path rules match
// package membership against.
func strippedPath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		importPath = importPath[:i]
	}
	return strings.TrimSuffix(importPath, "_test")
}
