package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkDurability implements R7: errors from durability-critical calls
// may not be discarded. The crash-safety argument of the journal (PR 5)
// is an ordering argument — append, fsync, rename, truncate — and it
// only holds if every step's error stops the sequence; a swallowed frame
// write lets the caller carry on against a dead peer. Discard shapes:
// a bare expression statement, an assignment with every error result
// blank, and defer/go statements (whose return values are always
// dropped). Test files are exempt — tests assert through the harness.
func checkDurability(p *Pass) {
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					p.reportDiscard(call, "")
				}
			case *ast.DeferStmt:
				p.reportDiscard(n.Call, "defer ")
			case *ast.GoStmt:
				p.reportDiscard(n.Call, "go ")
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok || !allErrResultsBlank(p, n, call) {
					return true
				}
				p.reportDiscard(call, "_ = ")
			}
			return true
		})
	}
}

// reportDiscard flags call if it is durability-critical and returns an
// error that the surrounding statement shape necessarily drops.
func (p *Pass) reportDiscard(call *ast.CallExpr, shape string) {
	desc, ok := p.durableCall(call)
	if !ok || !callReturnsErr(p, call) {
		return
	}
	p.reportf(call.Pos(), "R7",
		"%s%s discards the error from durability-critical %s: the crash-safe ordering only holds if every step's failure propagates",
		shape, desc, desc)
}

// durableCall classifies a call as durability-critical: journal.Store
// mutations and proto frame writes module-wide; raw fsync/rename/Close
// on files only inside the journal package itself (and fixtures), where
// the crash-safe ordering lives.
func (p *Pass) durableCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.Info, call)
	if fn != nil {
		if recv := recvType(p.Info, call); recv != nil {
			if namedAs(recv, "cosched/internal/journal", "Store") && durableStoreMethods[fn.Name()] {
				return "journal.Store." + fn.Name(), true
			}
			// The WAL's syscall seam is the journal.FS / journal.File
			// pair (PR 10): every fault-injection campaign rides through
			// these interfaces, so a dropped error here hides the exact
			// faults the campaign exists to surface. Module-wide, like
			// Store — the handle is durability-critical wherever it flows.
			if namedAs(recv, "cosched/internal/journal", "File") && durableFileMethods[fn.Name()] {
				return "journal.File." + fn.Name(), true
			}
			if namedAs(recv, "cosched/internal/journal", "FS") && durableFSMethods[fn.Name()] {
				return "journal.FS." + fn.Name(), true
			}
			if durabilityFilePackage(p.Path) && namedAs(recv, "os", "File") &&
				(fn.Name() == "Sync" || fn.Name() == "Close" || fn.Name() == "Write" || fn.Name() == "Truncate") {
				return "os.File." + fn.Name(), true
			}
		}
		if isPkgFunc(fn, "cosched/internal/proto", "WriteFrame") {
			return "proto.WriteFrame", true
		}
		if durabilityFilePackage(p.Path) && isPkgFunc(fn, "os", "Rename", "Truncate") {
			return "os." + fn.Name(), true
		}
	}
	return "", false
}

// durableStoreMethods are the journal.Store mutations on the crash-safe
// ordering path; their errors decide whether state survives a crash.
var durableStoreMethods = map[string]bool{
	"Append": true, "Compact": true, "Close": true, "Sync": true,
}

// durableFileMethods are the journal.File handle operations on the WAL's
// crash-safe ordering path. Every write the store makes flows through
// this interface (the fault-injection seam), so a swallowed error here is
// exactly a swallowed injected fault.
var durableFileMethods = map[string]bool{
	"Write": true, "Sync": true, "Truncate": true, "Close": true,
}

// durableFSMethods are the journal.FS operations whose failure breaks the
// append → fsync → rename → syncdir compaction ordering. MkdirAll /
// OpenFile / ReadFile are setup reads whose errors already fail loudly at
// open time.
var durableFSMethods = map[string]bool{
	"Rename": true, "Truncate": true, "SyncDir": true,
}

// durabilityFilePackage scopes the raw file-syscall checks (fsync,
// rename, close) to where the WAL's crash-safe ordering lives.
func durabilityFilePackage(path string) bool {
	return inRepoPackage(path, "journal") || inRepoPackage(path, "fixture")
}

// callReturnsErr reports whether the call produces at least one error
// result (directly from its type, so export-data callees work too).
func callReturnsErr(p *Pass, call *ast.CallExpr) bool {
	return len(errResultIndexes(p, call)) > 0
}

// errResultIndexes returns the result positions of call that have type
// error.
func errResultIndexes(p *Pass, call *ast.CallExpr) []int {
	tv, ok := p.Info.Types[call]
	if !ok {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var out []int
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				out = append(out, i)
			}
		}
		return out
	default:
		if t != nil && types.Identical(t, errType) {
			return []int{0}
		}
	}
	return nil
}

// allErrResultsBlank reports whether assign drops every error result of
// call into the blank identifier (`_ = f()`, `n, _ := f()` with error
// last). Capturing even one error position means the caller looked.
func allErrResultsBlank(p *Pass, assign *ast.AssignStmt, call *ast.CallExpr) bool {
	idx := errResultIndexes(p, call)
	if len(idx) == 0 {
		return false
	}
	for _, i := range idx {
		if i >= len(assign.Lhs) {
			return false
		}
		id, ok := assign.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// isTestFile reports whether f is a _test.go file.
func isTestFile(p *Pass, f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}
