package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// peerVocabulary is the typed coordination vocabulary: cosched.Peer and its
// CoStarter, Prober and Reconciler extensions.
var peerVocabulary = map[string]bool{
	"GetMateJob": true, "GetMateStatus": true, "CanStartMate": true,
	"ProbeMate": true, "TryStartMate": true, "TryStartMateAt": true,
	"StartMate": true, "StartMateAt": true, "ReconcileMates": true,
}

// TestPeerVocabularyWrittenOnce: the coordination calls are answered by
// resmgr.Manager and spoken by proto.Caller over any proto.Exchanger, and by
// nothing else. A transport, decorator or fault layer implements Exchange —
// one method — and embeds a Caller; a type that declares one of the nine
// methods itself is the hand-written forwarding layer coming back.
func TestPeerVocabularyWrittenOnce(t *testing.T) {
	allowed := map[string]bool{"resmgr.Manager": true, "proto.Caller": true}
	eachNonTestFile(t, func(fset *token.FileSet, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !peerVocabulary[fn.Name.Name] {
				continue
			}
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			recv := f.Name.Name + "." + types.ExprString(typ)
			if !allowed[recv] {
				t.Errorf("%s: %s declares %s; implement proto.Exchanger and embed proto.Caller instead",
					fset.Position(fn.Pos()), recv, fn.Name.Name)
			}
		}
	})
}

// TestPeerCallsOnlyInExchange: inside internal/resmgr, Algorithm 1's
// decision (decide) and every apply step do no I/O; peer calls sit in two
// exchange steps only, RunJob's (probe, try, start) and ReconcileWith's
// handshake. A peer call is a coordination method called on anything but
// the Manager itself, or a call of one of the helpers that make one
// (cosched.ProbeMate, tryStartMateAt, startMateAt); the two local helpers'
// own bodies are those calls.
func TestPeerCallsOnlyInExchange(t *testing.T) {
	dir := filepath.Join("internal", "resmgr") + string(filepath.Separator)
	exchanges := map[string]bool{"RunJob": true, "ReconcileWith": true}
	helpers := map[string]bool{"tryStartMateAt": true, "startMateAt": true}
	inExchange := 0
	eachNonTestFile(t, func(fset *token.FileSet, f *ast.File) {
		if !strings.Contains(fset.Position(f.Pos()).Filename, dir) {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil && helpers[fn.Name.Name] {
				continue
			}
			self := ""
			if fn.Recv != nil && len(fn.Recv.List[0].Names) > 0 {
				self = fn.Recv.List[0].Names[0].Name
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				peerCall := false
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					peerCall = helpers[fun.Name]
				case *ast.SelectorExpr:
					x, isIdent := fun.X.(*ast.Ident)
					peerCall = peerVocabulary[fun.Sel.Name] && !(isIdent && x.Name == self)
				}
				switch {
				case !peerCall:
				case fn.Recv != nil && exchanges[fn.Name.Name]:
					inExchange++
				default:
					t.Errorf("%s: %s calls %s; peer calls belong in RunJob's exchange step or ReconcileWith's handshake",
						fset.Position(call.Pos()), fn.Name.Name, types.ExprString(call.Fun))
				}
				return true
			})
		}
	})
	if inExchange == 0 {
		t.Error("found no peer call in RunJob or ReconcileWith; the guard no longer sees them")
	}
}

// TestObserverFanOutWrittenOnce: resmgr.Tee is the only fan-out over
// lifecycle observers. A named type or struct field holding a
// resmgr.Observer (or a slice of them) is a hand-written forwarder or a
// wrapper chain coming back; a consumer embeds resmgr.NullObserver for what
// it ignores and joins a Tee. Besides Tee, only the three places that hand
// one observer to a manager may hold one.
func TestObserverFanOutWrittenOnce(t *testing.T) {
	allowed := map[string]bool{
		"resmgr.Tee": true, "resmgr.Options.Observer": true,
		"resmgr.Manager.obs": true, "coupled.DomainConfig.Observer": true,
	}
	eachNonTestFile(t, func(fset *token.FileSet, f *ast.File) {
		pkg := f.Name.Name
		check := func(pos token.Pos, name string, typ ast.Expr) {
			if arr, ok := typ.(*ast.ArrayType); ok {
				typ = arr.Elt
			}
			s := types.ExprString(typ)
			if (s == "resmgr.Observer" || pkg == "resmgr" && s == "Observer") && !allowed[name] {
				t.Errorf("%s: %s holds a resmgr.Observer; compose observers with resmgr.Tee instead",
					fset.Position(pos), name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			name := pkg + "." + ts.Name.Name
			check(ts.Pos(), name, ts.Type)
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					fname := types.ExprString(field.Type) // embedded
					if len(field.Names) > 0 {
						fname = field.Names[0].Name
					}
					check(field.Pos(), name+"."+fname, field.Type)
				}
			}
			return true
		})
	})
}

// TestAcceptLoopWrittenOnce: proto.Acceptor is the only accept loop. Both
// daemon endpoints (the peer port's proto.Server and the admin port's
// live.AdminServer) hold one, so tracking, closing and the accept-error
// rule live in one place; an Accept call anywhere else is a second loop
// coming back. (The status page's http.Server accepts inside the standard
// library.)
func TestAcceptLoopWrittenOnce(t *testing.T) {
	acceptor := filepath.Join("internal", "proto", "acceptor.go")
	inAcceptor := 0
	eachNonTestFile(t, func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Accept" {
				return true
			}
			pos := fset.Position(call.Pos())
			if strings.HasSuffix(pos.Filename, acceptor) {
				inAcceptor++
			} else {
				t.Errorf("%s: calls Accept; serve connections through proto.Acceptor instead", pos)
			}
			return true
		})
	})
	if inAcceptor != 1 {
		t.Errorf("%s calls Accept %d times, want once", acceptor, inAcceptor)
	}
}

// TestDomainBuiltOnce: a domain description becomes a resource manager in
// one chain, config.Domain.DomainConfig then coupled.NewManager, for the
// simulator, the live daemon and the chaos campaign's recovery gate alike.
// A second call of resmgr.New, or a second parse of a scheme or policy
// name, is a second description of a domain coming back.
func TestDomainBuiltOnce(t *testing.T) {
	calls := map[string]int{"resmgr.New": 0, "cosched.ParseScheme": 0, "policy.ByName": 0}
	eachNonTestFile(t, func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				name := types.ExprString(call.Fun)
				if _, ok := calls[name]; ok {
					calls[name]++
					t.Logf("%s: %s", fset.Position(call.Pos()), name)
				}
			}
			return true
		})
	})
	for name, n := range calls {
		if n != 1 {
			t.Errorf("%s is called %d times outside tests and bench/, want once", name, n)
		}
	}
}

// TestLiveTestsStepTheClock: internal/live reads time through
// Driver.now, so its tests run the daemons on a stepped clock and read
// state through the driver, and none of them waits on the wall clock —
// except four that time something real: a socket deadline, a goroutine's
// exit, a fast-fail's latency and an idle run loop's passes over wall time.
// One helper, await, bounds a wait that a regression could make endless, so
// the test fails with a message instead of hanging; it paces nothing. A
// wall-clock call anywhere else in those tests is a sleep-and-poll test
// coming back. The package's own code makes one such call, AdminClient's
// per-call deadline on a real socket. The run loop's timer in Driver.Run is
// listed beside it: it is armed for the span to the next event computed
// from Driver.now, and a stepped clock wakes the loop itself, so it is the
// driver's clock asleep rather than a second clock. Any other wall call in
// the package's code is a wait a stepped-clock test cannot drive.
func TestLiveTestsStepTheClock(t *testing.T) {
	allowed := map[string]bool{
		"TestAdminCallTimesOutOnSilentServer":  true,
		"TestAdminServerCloseIdleClient":       true,
		"TestLiveBreakerFailsFastWithPeerDown": true,
		"TestIdleLoopSleeps":                   true,
		"await":                                true,
		"AdminClient.call":                     true,
		"Driver.Run":                           true,
	}
	wall := map[string]bool{"Now": true, "Since": true, "After": true, "NewTimer": true, "Sleep": true}
	paths, err := filepath.Glob(filepath.Join("..", "live", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no internal/live files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && allowed[funcName(fn)] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && wall[sel.Sel.Name] {
					t.Errorf("%s: calls time.%s; read and wait on Driver.now (a test steps its clock) instead", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// funcName is fn's name, qualified by its receiver's type for a method:
// "Driver.Run", "await".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// eachNonTestFile parses every non-test Go file under internal/, cmd/ and
// examples/ (not testdata; bench/ lies outside them) and hands it to fn.
func eachNonTestFile(t *testing.T, fn func(*token.FileSet, *ast.File)) {
	t.Helper()
	const root = "../.."
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			checked++
			fn(fset, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("parsed no Go files under " + root)
	}
}
