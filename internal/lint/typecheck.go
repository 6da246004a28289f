package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// typecheck parses and type-checks one lint target from source. Imports
// are satisfied from the compiler export data recorded in the package
// table, so only the target itself is parsed. A fresh importer is built
// per target because test variants can map the same nominal import path
// to different export data.
func typecheck(fset *token.FileSet, target *Package, table map[string]*Package) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, path := range target.Files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: parse %s: %v", path, err)
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		key := path
		if mapped, ok := target.ImportMap[path]; ok {
			key = mapped
		}
		dep, ok := table[key]
		if !ok || dep.Export == "" {
			return nil, fmt.Errorf("lint: no export data for %q (from %s)", path, target.ImportPath)
		}
		return os.Open(dep.Export)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		// Example files compile against the package's documented API;
		// FakeImportC is irrelevant here but harmless.
		FakeImportC: true,
	}
	pkg, err := conf.Check(target.Path, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: typecheck %s: %v", target.ImportPath, err)
	}
	return files, pkg, info, nil
}
