package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkLockBlock implements R8: no mutex held across a blocking call in
// the protocol/durability packages. The failure shape is the stalled
// link: a writer holds the link mutex while a peer stops reading, the
// TCP window fills, the write parks forever, and every goroutine that
// needs the mutex — including the one that would have noticed the dead
// peer — parks behind it. The scan is lexical and per-function:
// events (Lock/Unlock/defer-Unlock, blocking calls, channel ops) are
// collected in source order and a blocking event inside a held region is
// a finding. sync.Cond.Wait is not blocking here — it releases its mutex
// while parked — and file I/O is out of scope by contract. Callees are
// followed through their static summaries only: a lock held across a
// stored callback or an interface method that ends in a peer call — the
// live.Driver cycle of ROADMAP item 1 — is a known miss (testdata/r8.go).
func checkLockBlock(p *Pass) {
	if !lockBlockPackage(p.Path) {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, body := range functionBodies(f) {
			p.scanLockRegions(body)
		}
	}
}

// lockBlockPackage scopes R8 to the packages whose mutexes guard live
// protocol or WAL state. internal/proto is deliberately excluded: its
// client serializes one request/response exchange under the connection
// mutex by design (the wire protocol is sequential).
func lockBlockPackage(path string) bool {
	return inRepoPackage(path, "peerlink") || inRepoPackage(path, "journal") ||
		inRepoPackage(path, "fixture")
}

// functionBodies returns every function body in f — declarations and
// literals alike — each scanned as its own lexical scope.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

type lockEvent struct {
	pos  token.Pos
	kind int // lockEv, unlockEv, deferUnlockEv, blockEv
	path string
	desc string
}

const (
	lockEv = iota
	unlockEv
	deferUnlockEv
	blockEv
)

// scanLockRegions collects this body's events in source order (skipping
// nested function literals, which scan as their own scopes) and reports
// every blocking event inside a held region.
func (p *Pass) scanLockRegions(body *ast.BlockStmt) {
	var events []lockEvent
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// Launching a goroutine does not block; its body is scanned
			// as its own scope.
			return false
		case *ast.DeferStmt:
			if path, kind, ok := mutexOp(p, n.Call); ok && kind == unlockEv {
				events = append(events, lockEvent{pos: n.Pos(), kind: deferUnlockEv, path: path})
			}
			return false
		case *ast.CallExpr:
			if path, kind, ok := mutexOp(p, n); ok {
				events = append(events, lockEvent{pos: n.Pos(), kind: kind, path: path})
				return true
			}
			if desc, ok := p.blockingCall(n); ok {
				events = append(events, lockEvent{pos: n.Pos(), kind: blockEv, desc: desc})
			}
		case *ast.SendStmt:
			events = append(events, lockEvent{pos: n.Pos(), kind: blockEv, desc: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				events = append(events, lockEvent{pos: n.Pos(), kind: blockEv, desc: "channel receive"})
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				events = append(events, lockEvent{pos: n.Pos(), kind: blockEv, desc: "select"})
			}
			// Clause bodies are ordinary code; the comm operations
			// themselves belong to the select and are not re-counted.
			for _, s := range n.Body.List {
				if cc, ok := s.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						ast.Inspect(stmt, visit)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					events = append(events, lockEvent{pos: n.Pos(), kind: blockEv, desc: "range over channel"})
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)

	held := make(map[string]token.Pos)
	deferred := make(map[string]bool)
	for _, ev := range events {
		switch ev.kind {
		case lockEv:
			held[ev.path] = ev.pos
		case unlockEv:
			if !deferred[ev.path] {
				delete(held, ev.path)
			}
		case deferUnlockEv:
			deferred[ev.path] = true
		case blockEv:
			for path, lockPos := range held {
				p.reportf(ev.pos, "R8",
					"%s while %s is locked (line %d): a blocked peer stalls every goroutine contending for the mutex — release it around the blocking call",
					ev.desc, path, p.Fset.Position(lockPos).Line)
				break
			}
		}
	}
}

// mutexOp classifies a call as a sync.Mutex/RWMutex lock or unlock on a
// named receiver path.
func mutexOp(p *Pass, call *ast.CallExpr) (string, int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	recv := recvType(p.Info, call)
	if recv == nil || (!namedAs(recv, "sync", "Mutex") && !namedAs(recv, "sync", "RWMutex")) {
		return "", 0, false
	}
	path := exprPath(sel.X)
	if path == "" {
		path = "<mutex>"
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return path, lockEv, true
	case "Unlock", "RUnlock":
		return path, unlockEv, true
	}
	return "", 0, false
}

// blockingCall reports whether the call may block on the network, a
// channel, a process, or the clock — either intrinsically or through its
// callee's summary.
func (p *Pass) blockingCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.Info, call)
	if fn != nil {
		name := fn.Name()
		if recv := recvType(p.Info, call); recv != nil {
			switch {
			case (name == "Read" || name == "Write") && blockingIOReceiver(recv):
				return "blocking " + name, true
			case name == "Wait" && namedAs(recv, "sync", "WaitGroup"):
				return "WaitGroup.Wait", true
			case namedAs(recv, "os/exec", "Cmd") &&
				(name == "Wait" || name == "Run" || name == "Output" || name == "CombinedOutput"):
				return "exec.Cmd." + name, true
			}
		}
		if isPkgFunc(fn, "time", "Sleep") {
			return "time.Sleep", true
		}
		if isPkgFunc(fn, "io", "ReadFull", "ReadAll", "Copy", "CopyN", "CopyBuffer") {
			return "io." + name, true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "net" && isPackageLevel(fn) &&
			len(name) >= 4 && name[:4] == "Dial" {
			return "net." + name, true
		}
		if isPkgFunc(fn, "cosched/internal/proto", "WriteFrame", "ReadFrame") {
			return "proto." + name, true
		}
	}
	if sum := p.calleeSummary(call); sum != nil && sum.Blocks {
		return "call to " + p.calleeDisplay(call) + " (may block per its summary)", true
	}
	return "", false
}
