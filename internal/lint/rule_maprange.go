package lint

import (
	"go/ast"
	"go/types"
)

// checkMapRange implements R1: a `for ... range m` over a map may not
// reach event scheduling, resource-manager driving, trace emission, or
// ordered output from inside the loop body, because map iteration order is
// deliberately randomized per run. The safe idiom — range the map only to
// collect keys, sort, then do the ordered work from the slice — is not
// flagged: the collection loop's body contains no order-sensitive call.
func checkMapRange(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if call, what := p.orderSensitiveCall(rs.Body); call != nil {
				p.reportf(rs.For, "R1",
					"map iteration order is random but the loop body reaches %s (line %d); collect keys, sort, then iterate the slice",
					what, p.Fset.Position(call.Pos()).Line)
			}
			return true
		})
	}
}

// orderSensitiveCall scans a map-range body (including nested closures —
// they typically run per iteration) for the first call whose effect
// depends on invocation order, and describes it.
func (p *Pass) orderSensitiveCall(body *ast.BlockStmt) (found *ast.CallExpr, what string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if w := p.describeOrderSensitive(call); w != "" {
			found, what = call, w
			return false
		}
		return true
	})
	return found, what
}

// describeOrderSensitive classifies one call; empty means order-neutral.
func (p *Pass) describeOrderSensitive(call *ast.CallExpr) string {
	f := calleeFunc(p.Info, call)

	// Direct output: fmt's printing family (Sprint* is pure and exempt).
	if isPkgFunc(f, "fmt", "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln") {
		return "direct output (fmt." + f.Name() + ")"
	}

	recv := recvType(p.Info, call)
	if recv == nil {
		return ""
	}
	name := f.Name()

	// Event scheduling: anything that enqueues on the engine consumes a
	// sequence number, and sequence numbers break same-instant ties for
	// the rest of the simulation.
	if namedAs(recv, "cosched/internal/sim", "Engine") {
		switch name {
		case "At", "After", "Every", "Step", "Run", "RunUntil":
			return "event scheduling (sim.Engine." + name + ")"
		}
	}
	// Driving the resource manager schedules events and mutates ordered
	// queue state.
	if namedAs(recv, "cosched/internal/resmgr", "Manager") {
		switch name {
		case "Submit", "SubmitAt", "Cancel", "RequestIteration", "Iterate", "RunJob":
			return "resmgr scheduling (Manager." + name + ")"
		}
	}
	// Ordered table/trace emission.
	if namedAs(recv, "cosched/internal/metrics", "Table") && (name == "AddRow" || name == "AddRowf") {
		return "ordered table rows (metrics.Table." + name + ")"
	}
	// The transition record on disk: every append takes the next journal
	// sequence number, so map order would reorder the WAL.
	if namedAs(recv, "cosched/internal/journal", "Store") && name == "Append" ||
		namedAs(recv, "cosched/internal/journal", "Recorder") && name != "Detach" {
		return "journal record (" + recv.String() + "." + name + ")"
	}
	// Generic writer emission (strings.Builder, bytes.Buffer, files,
	// bufio, network conns — anything with the io.Writer method set).
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return "writer emission (" + recv.String() + "." + name + ")"
	}
	return ""
}
