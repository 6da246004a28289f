package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Rule is one simlint check. Every rule encodes a repo contract or a past
// bug; Doc is the one-paragraph rationale `simlint -rules` prints and
// ARCHITECTURE.md §6 catalogs.
//
// Admission: a rule stays while it has a finding (allowed or not) in the
// tree, or a named defect in this repo's history with a must-fail fixture;
// TestRepoSelfCheck enforces it. IDs are never renumbered or reused —
// //simlint:allow directives name them — so the sequence has gaps.
type Rule struct {
	ID    string
	Title string
	Doc   string
	Check func(*Pass)
}

// Rules is the simlint rule catalog, in report order.
var Rules = []Rule{
	{
		ID:    "R1",
		Title: "no map iteration into ordered state",
		Doc: "A `range` over a map whose body schedules events, drives the " +
			"resource manager, or emits ordered output injects Go's randomized " +
			"map order into the simulation's total event order or into rendered " +
			"bytes. PR 2's determinism bug was exactly this: coupled.New ranged " +
			"a traces map while scheduling submissions, flipping proportion-sweep " +
			"cells between runs. Collect keys, sort, then iterate the slice.",
		Check: checkMapRange,
	},
	{
		ID:    "R2",
		Title: "no wall clock or global RNG in sim-pure packages",
		Doc: "Simulation packages model time as sim.Time and draw randomness " +
			"from explicitly seeded sources; time.Now/time.Sleep or the global " +
			"math/rand functions make results machine- and run-dependent. " +
			"Applies to every cosched/internal package except internal/live " +
			"(the real-time driver); cmd/ and examples/ are exempt. The " +
			"std-lib call itself is what is matched: a sim-pure package can " +
			"only import other sim-pure packages, so a wrapper around " +
			"time.Now is reported where it is written.",
		Check: checkPurity,
	},
	{
		ID:    "R4",
		Title: "no goroutines or t.Parallel around a resmgr.Manager",
		Doc: "resmgr.Manager is single-threaded by contract — the engine's " +
			"event loop serializes everything. Goroutines capturing a Manager " +
			"or t.Parallel in its tests race the scheduler state; concurrency " +
			"belongs in internal/parallel's deterministic cell pool, where each " +
			"worker owns a private engine — never a shared Manager. Escape is " +
			"tracked through values: arguments and captured free variables " +
			"whose types *contain* a Manager (struct fields, slices, maps) " +
			"are flagged. Named internal/live types are exempt — the Driver " +
			"serializes its Manager by design.",
		Check: checkConcurrency,
	},
	{
		ID:    "R5",
		Title: "no floating-point == or != ",
		Doc: "Metric aggregates are accumulated floats; bit-equality on them " +
			"encodes accumulation order and rounding into control flow, which " +
			"is exactly what the byte-identical differential gates exist to " +
			"catch. Compare against an epsilon, compare the rendered strings, " +
			"or restructure around exact integer state. (x != x as a NaN probe " +
			"is recognized and allowed.)",
		Check: checkFloatEq,
	},
	{
		ID:    "R6",
		Title: "no append/make in //simlint:hotpath functions",
		Doc: "Functions marked //simlint:hotpath are the per-event spine " +
			"(engine scheduling, arena handout, policy ordering, metric " +
			"absorption) that the arena/free-list memory architecture keeps " +
			"allocation-free at steady state. An append or make inside one " +
			"reintroduces per-event allocation and GC pressure that the " +
			"zero-alloc benchmark assertions would only catch after the " +
			"fact. Preallocate, recycle through a free list, or — for " +
			"amortized container growth (slab, heap, free-list doubling) — " +
			"annotate the site with //simlint:allow R6 and the amortization " +
			"argument.",
		Check: checkHotpath,
	},
	{
		ID:    "R7",
		Title: "no discarded errors on durability-critical calls",
		Doc: "The journal's crash-safety proof (PR 5) is an ordering argument " +
			"— append, fsync, rename, truncate — and it only holds if every " +
			"step's error stops the sequence; a frame write whose failure is " +
			"swallowed lets the caller carry on against a dead peer. Discarding " +
			"the error from journal.Store.Append/Compact/Close/Sync, " +
			"proto.WriteFrame, or (inside internal/journal) a raw file " +
			"Sync/Close/Write or os.Rename — via `_ =`, a bare statement, " +
			"defer, or go — is a finding. Genuinely best-effort sends (a " +
			"farewell frame on an already-failed connection) carry a " +
			"//simlint:allow R7 stating why losing the write is safe.",
		Check: checkDurability,
	},
}

// ---------------------------------------------------------------------------
// Shared type helpers

// namedAs reports whether t (after pointer deref) is the named type
// path.name.
func namedAs(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvType returns the receiver type of a method call, or nil when the
// call is not a method call.
func recvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return s.Recv()
}

// isPkgFunc reports whether f is a package-level function (not a method)
// of the given package path with one of the given names.
func isPkgFunc(f *types.Func, path string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != path {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// inRepoPackage reports whether path is inside this module's internal
// tree (works for both the real module and fixture paths).
func inRepoPackage(path, sub string) bool {
	return path == "cosched/internal/"+sub || strings.HasPrefix(path, "cosched/internal/"+sub+"/")
}
