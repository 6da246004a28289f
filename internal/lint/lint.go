package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Finding is one rule violation (or allow-directive hygiene problem),
// positioned at file:line:col. Allowed findings were suppressed by a
// //simlint:allow directive; Run drops them, RunAll keeps them marked so
// -json consumers can diff the full picture.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	// Allowed marks a finding covered by a //simlint:allow directive;
	// Reason carries the directive's justification text.
	Allowed bool
	Reason  string
}

// String renders the finding the way compilers report diagnostics.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Pass is the per-package context handed to every rule.
type Pass struct {
	Fset *token.FileSet
	// Files are the parsed sources of the package (test variants include
	// the _test.go files).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the import path rules match package membership against
	// (test-variant suffixes stripped).
	Path string

	findings []Finding
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, rule, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:  p.Fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// unit is one type-checked lint target plus its parsed sources.
type unit struct {
	target *Package
	files  []*ast.File
	pkg    *types.Package
	info   *types.Info
}

// Run lints the packages matched by patterns (relative to dir, typically
// "./...") and returns every active finding — allow-suppressed ones are
// dropped — sorted by position. A non-nil error means the analysis itself
// could not run (load or type-check failure), not that findings exist.
func Run(dir string, tags []string, patterns ...string) ([]Finding, error) {
	all, err := RunAll(dir, tags, patterns...)
	if err != nil {
		return nil, err
	}
	active := make([]Finding, 0, len(all))
	for _, f := range all {
		if !f.Allowed {
			active = append(active, f)
		}
	}
	return active, nil
}

// RunAll is Run without the allow filter: suppressed findings stay in the
// result, marked Allowed with their directive's reason. The pipeline is
// load → parallel typecheck → parallel rule execution → deterministic
// position sort.
func RunAll(dir string, tags []string, patterns ...string) ([]Finding, error) {
	table, targets, err := Load(dir, tags, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	units, err := typecheckAll(fset, targets, table)
	if err != nil {
		return nil, err
	}

	// Rules read one unit and nothing else, so they fan out like
	// typechecking does. Results merge in unit order and then sort
	// globally, keeping output byte-stable at any GOMAXPROCS.
	results := make([][]Finding, len(units))
	parallelEach(len(units), func(i int) {
		results[i] = checkUnit(fset, units[i])
	})
	var all []Finding
	for _, r := range results {
		all = append(all, r...)
	}
	sortFindings(all)
	return all, nil
}

// parallelEach runs fn(0..n-1) across GOMAXPROCS workers and waits.
func parallelEach(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// sortFindings orders findings by position then rule — the stable order
// -json output and golden diffs rely on.
func sortFindings(all []Finding) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// checkUnit runs every rule over one type-checked package and applies the
// package's //simlint:allow directives: a matching directive marks a
// finding Allowed (same line or the line directly below); directives that
// suppress nothing (stale) or carry no reason are findings themselves.
func checkUnit(fset *token.FileSet, u *unit) []Finding {
	p := &Pass{
		Fset: fset, Files: u.files, Pkg: u.pkg, Info: u.info,
		Path: u.target.Path,
	}
	for _, r := range Rules {
		r.Check(p)
	}
	allows := collectAllows(fset, u.files)
	for i := range p.findings {
		if d := matchAllow(allows, p.findings[i]); d != nil {
			d.used = true
			p.findings[i].Allowed = true
			p.findings[i].Reason = d.reason
		}
	}
	out := p.findings
	for _, d := range allows {
		if d.reason == "" {
			out = append(out, Finding{Pos: d.pos, Rule: "allow",
				Msg: fmt.Sprintf("//simlint:allow %s has no reason — every exception must say why it is safe", d.rule)})
		}
		if !d.used {
			out = append(out, Finding{Pos: d.pos, Rule: "allow",
				Msg: fmt.Sprintf("stale //simlint:allow %s: it suppresses nothing on this or the next line — delete it or move it to the violation", d.rule)})
		}
	}
	return out
}
