package discoverxfd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublicSurface keeps Engine the only entry point into the
// pipeline. Loading, building, discovering, evaluating and checking
// are Engine methods, so no exported package-level function other
// than the NewEngine constructor may take a context.Context or an
// *Options, or be named after one of those stages; package-level
// functions only parse, infer, render or transform values already in
// memory.
func TestPublicSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Name.Name == "NewEngine" {
				continue
			}
			if why := pipelineEntry(fn); why != "" {
				t.Errorf("%s: package-level %s %s; make it an Engine method",
					fset.Position(fn.Pos()), fn.Name.Name, why)
			}
		}
	}
}

// pipelineEntry says why fn looks like a pipeline entry point, or
// returns "".
func pipelineEntry(fn *ast.FuncDecl) string {
	for _, stage := range []string{"Load", "Build", "Discover", "Evaluate", "Check"} {
		if strings.HasPrefix(fn.Name.Name, stage) {
			return "is named after the " + stage + " stage"
		}
	}
	for _, p := range fn.Type.Params.List {
		switch typ := p.Type.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := typ.X.(*ast.Ident); ok && pkg.Name == "context" && typ.Sel.Name == "Context" {
				return "takes a context.Context"
			}
		case *ast.StarExpr:
			if id, ok := typ.X.(*ast.Ident); ok && id.Name == "Options" {
				return "takes an *Options"
			}
		}
	}
	return ""
}
