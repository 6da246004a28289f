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
// methods itself is the hand-written forwarding layer coming back. Non-test
// files under internal/, cmd/ and examples/ are checked; bench/ is not.
func TestPeerVocabularyWrittenOnce(t *testing.T) {
	const root = "../.."
	allowed := map[string]bool{"resmgr.Manager": true, "proto.Caller": true}
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
