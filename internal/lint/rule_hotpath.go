package lint

import (
	"go/ast"
	"go/types"
)

// hotpathDirective is the marker comment that subjects a function to R6.
// It must sit on the line directly above the func declaration (by
// convention the last line of the doc comment).
const hotpathDirective = "//simlint:hotpath"

// checkHotpath implements R6: inside a function marked //simlint:hotpath,
// the allocation builtins append and make are findings. The marked
// functions are the per-event spine (engine scheduling, arena handout,
// policy ordering, metric absorption) that the memory architecture keeps
// allocation-free at steady state; the property is tested by the
// zero-alloc assertions and measured by bench/'s allocs_per_job, but those
// only catch the regression after the fact — this rule catches it at lint
// time.
// Amortized container growth (slab, heap, and free-list doubling) is the
// sanctioned exception and carries //simlint:allow R6 with the
// amortization argument.
func checkHotpath(p *Pass) {
	for _, f := range p.Files {
		// Collect the lines carrying the marker, then match each func
		// declaration starting on the line right below one.
		marked := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == hotpathDirective {
					marked[p.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(marked) == 0 {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !marked[p.Fset.Position(fd.Pos()).Line-1] {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if _, builtin := p.Info.Uses[id].(*types.Builtin); !builtin {
					return true
				}
				switch id.Name {
				case "append", "make":
					p.reportf(call.Pos(), "R6",
						"%s in hotpath function %s: //simlint:hotpath code must be allocation-free at steady state; preallocate, recycle through a free list, or annotate amortized growth with an allow", id.Name, name)
				}
				return true
			})
		}
	}
}
