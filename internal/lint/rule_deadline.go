package lint

import (
	"go/ast"
	"go/token"
)

// checkDeadline implements R9: a network read in a protocol package must
// be preceded — in the same function — by arming a read deadline on the
// conn, either directly (SetReadDeadline/SetDeadline) or through a
// helper/closure whose summary sets one. A read with no deadline turns a
// silent peer into a leaked goroutine. Reads: proto.ReadFrame on a conn-like
// argument, a raw .Read on a conn-like receiver, or ReadFrame on a
// proto.FrameReader (the buffered reader of one connection; which conn it
// wraps is not visible here, so any earlier deadline satisfies it). "Same
// conn" is matched lexically by selector path; a deadline on an
// unmatchable expression (or from a summary) satisfies any read.
func checkDeadline(p *Pass) {
	if !protocolPackage(p.Path) {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, body := range functionBodies(f) {
			p.scanDeadlines(body)
		}
	}
}

// protocolPackage scopes R9 to the packages that own live sockets.
func protocolPackage(path string) bool {
	return inRepoPackage(path, "proto") || inRepoPackage(path, "peerlink") ||
		inRepoPackage(path, "fixture")
}

type deadlineEvent struct {
	pos  token.Pos
	path string // "" means "arms a deadline on some conn" (summary)
}

type readEvent struct {
	pos  token.Pos
	path string
	desc string
}

// scanDeadlines walks one function body (nested literals scan as their
// own scopes) collecting deadline-arming events and conn reads, then
// reports every read with no preceding deadline on the same conn.
func (p *Pass) scanDeadlines(body *ast.BlockStmt) {
	var deadlines []deadlineEvent
	var reads []readEvent
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "SetReadDeadline", "SetDeadline":
				deadlines = append(deadlines, deadlineEvent{pos: call.Pos(), path: exprPath(sel.X)})
				return true
			case "Read":
				if recv := recvType(p.Info, call); connLikeType(recv) {
					reads = append(reads, readEvent{pos: call.Pos(), path: exprPath(sel.X), desc: "conn.Read"})
				}
				return true
			case "ReadFrame":
				if namedAs(recvType(p.Info, call), "cosched/internal/proto", "FrameReader") {
					reads = append(reads, readEvent{pos: call.Pos(), desc: "proto.FrameReader.ReadFrame"})
					return true
				}
			}
		}
		fn := calleeFunc(p.Info, call)
		if isPkgFunc(fn, "cosched/internal/proto", "ReadFrame") && len(call.Args) > 0 {
			if tv, ok := p.Info.Types[call.Args[0]]; ok && connLikeType(tv.Type) {
				reads = append(reads, readEvent{
					pos: call.Pos(), path: exprPath(call.Args[0]), desc: "proto.ReadFrame"})
			}
			return true
		}
		if sum := p.calleeSummary(call); sum != nil && sum.SetsDeadline {
			deadlines = append(deadlines, deadlineEvent{pos: call.Pos(), path: ""})
		}
		return true
	})
	for _, r := range reads {
		armed := false
		for _, d := range deadlines {
			if d.pos >= r.pos {
				continue
			}
			if d.path == "" || r.path == "" || d.path == r.path {
				armed = true
				break
			}
		}
		if !armed {
			p.reportf(r.pos, "R9",
				"%s on %q with no preceding read deadline in this function: a silent peer parks this goroutine forever — arm SetReadDeadline first",
				r.desc, readConnName(r.path))
		}
	}
}

func readConnName(path string) string {
	if path == "" {
		return "conn"
	}
	return path
}
