package rcu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestExportedIdentifiersDocumented enforces the package's doc-comment
// discipline mechanically: every exported type, function, method,
// constant and variable in package rcu must carry a doc comment. The
// robustness knobs (SetStallTimeout, SetStallHandler, …) are
// configuration surface operators read under pressure — an undocumented
// one is a bug this test catches at review time.
func TestExportedIdentifiersDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedReceiver(d) && d.Doc == nil {
						t.Errorf("%s: exported %s has no doc comment",
							fset.Position(d.Pos()), d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
								t.Errorf("%s: exported type %s has no doc comment",
									fset.Position(sp.Pos()), sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() && d.Doc == nil && sp.Doc == nil {
									t.Errorf("%s: exported %s has no doc comment",
										fset.Position(n.Pos()), n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether f is a plain function or a method on
// an exported type; methods on unexported types are internal surface.
func exportedReceiver(f *ast.FuncDecl) bool {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return true
	}
	typ := f.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if gen, ok := typ.(*ast.IndexExpr); ok { // generic receiver T[P]
		typ = gen.X
	}
	id, ok := typ.(*ast.Ident)
	return !ok || id.IsExported()
}
