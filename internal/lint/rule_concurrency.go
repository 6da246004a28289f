package lint

import (
	"go/ast"
	"go/types"
)

// checkConcurrency implements R4: resmgr.Manager is single-threaded by
// contract (the sim engine's event loop serializes all access), so no
// goroutine may receive one, and its tests may not opt into t.Parallel —
// parallel subtests interleave distinct managers' engines only in
// internal/parallel, where every worker owns a private engine and results
// merge in index order.
//
// What escapes into a goroutine is modeled precisely: the call's
// arguments, the bound receiver value of a method expression, and — for
// function literals — the free variables their bodies reference. A value
// escapes if its type transitively *contains* a Manager (struct fields,
// slices, maps), not just if it is one, so wrapping the Manager in a
// config struct no longer slips past the rule. Named types declared in
// internal/live are exempt from the containment walk: the live Driver
// owns a Manager by design and serializes access behind its own mutex.
func checkConcurrency(p *Pass) {
	if p.Path == "cosched/internal/parallel" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				if fn != nil && fn.Name() == "Parallel" {
					if recv := recvType(p.Info, n); recv != nil && namedAs(recv, "testing", "T") {
						p.reportf(n.Pos(), "R4",
							"t.Parallel outside internal/parallel: parallel subtests sharing scheduler state race the single-threaded Manager contract")
					}
				}
			case *ast.GoStmt:
				p.checkGoStmt(n)
			}
			return true
		})
	}
}

// checkGoStmt reports at most one finding per go statement.
func (p *Pass) checkGoStmt(g *ast.GoStmt) {
	for _, esc := range p.goEscapes(g.Call) {
		t := p.typeOf(esc.expr)
		if t == nil {
			continue
		}
		if namedAs(t, "cosched/internal/resmgr", "Manager") {
			p.reportf(g.Pos(), "R4",
				"goroutine %s *resmgr.Manager %q: the Manager is single-threaded by contract; fan work out through internal/parallel instead",
				esc.how, esc.name)
			return
		}
		if typeContainsManager(t) {
			p.reportf(g.Pos(), "R4",
				"goroutine %s %q (type %s contains a *resmgr.Manager): the Manager is single-threaded by contract; fan work out through internal/parallel instead",
				esc.how, esc.name, t.String())
			return
		}
	}
}

type escape struct {
	expr ast.Expr
	name string
	how  string
}

// goEscapes enumerates the values a `go` statement hands to the new
// goroutine: evaluated arguments, the eagerly bound method receiver,
// and the free variables of a launched function literal.
func (p *Pass) goEscapes(call *ast.CallExpr) []escape {
	var out []escape
	for _, arg := range call.Args {
		out = append(out, escape{expr: arg, name: exprName(arg), how: "receives argument"})
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			out = append(out, escape{expr: fun.X, name: exprName(fun.X), how: "binds receiver"})
		}
	case *ast.FuncLit:
		for _, id := range p.freeIdents(fun) {
			out = append(out, escape{expr: id, name: id.Name, how: "captures"})
		}
	}
	return out
}

// freeIdents returns the identifiers in lit's body whose defining object
// sits outside the literal — the closure's free variables.
func (p *Pass) freeIdents(lit *ast.FuncLit) []*ast.Ident {
	var out []*ast.Ident
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.Pos() == 0 {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		seen[v] = true
		out = append(out, id)
		return true
	})
	return out
}

func (p *Pass) typeOf(e ast.Expr) types.Type {
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// exprName renders a selector chain ("c.mgr") for the finding message,
// or "value" when the expression is not a plain ident/selector chain.
func exprName(e ast.Expr) string {
	if path := exprPath(e); path != "" {
		return path
	}
	return "value"
}

func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// typeContainsManager reports whether t transitively contains a
// resmgr.Manager (directly, behind pointers, or inside struct fields,
// slices, arrays, or map values). Named types declared in internal/live
// are excluded: the Driver layer owns its Manager and serializes access.
func typeContainsManager(t types.Type) bool {
	return containsManager(t, 0, make(map[types.Type]bool))
}

func containsManager(t types.Type, depth int, seen map[types.Type]bool) bool {
	if t == nil || depth > 8 || seen[t] {
		return false
	}
	seen[t] = true
	if ptr, ok := t.(*types.Pointer); ok {
		return containsManager(ptr.Elem(), depth, seen)
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			if obj.Pkg().Path() == "cosched/internal/resmgr" && obj.Name() == "Manager" {
				return true
			}
			if obj.Pkg().Path() == "cosched/internal/live" {
				return false
			}
		}
		return containsManager(named.Underlying(), depth+1, seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsManager(t.Field(i).Type(), depth+1, seen) {
				return true
			}
		}
	case *types.Slice:
		return containsManager(t.Elem(), depth+1, seen)
	case *types.Array:
		return containsManager(t.Elem(), depth+1, seen)
	case *types.Map:
		return containsManager(t.Elem(), depth+1, seen)
	}
	return false
}
