package llm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPatternsCompiledOnce guards the text layer's hot paths (this
// package and the pre-fixer, which run on every repair iteration)
// against rebuilding constant matchers per call: a function body may not
// call regexp.Compile/MustCompile (or the POSIX forms) with an argument
// built only from constants, nor strings.NewReplacer. Such a matcher
// belongs in a package-level var, built once at init. Patterns built
// from a runtime value (a symbol the log named) are allowed.
func TestPatternsCompiledOnce(t *testing.T) {
	for _, dir := range []string{".", "../fixer"} {
		fset := token.NewFileSet()
		var files []*ast.File
		consts := map[string]bool{} // package-level constant names
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			for _, d := range f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
					for _, s := range g.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							consts[n.Name] = true
						}
					}
				}
			}
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in %s", dir)
		}
		var isConst func(ast.Expr) bool
		isConst = func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.BasicLit:
				return true
			case *ast.Ident:
				return consts[x.Name] || x.Obj != nil && x.Obj.Kind == ast.Con
			case *ast.ParenExpr:
				return isConst(x.X)
			case *ast.BinaryExpr:
				return isConst(x.X) && isConst(x.Y)
			}
			return false
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				default:
					return true
				}
				if body == nil {
					return false
				}
				ast.Inspect(body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					pkg, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					switch {
					case pkg.Name == "strings" && sel.Sel.Name == "NewReplacer":
						t.Errorf("%s: strings.NewReplacer inside a function body; build it once in a package-level var", fset.Position(call.Pos()))
					case pkg.Name == "regexp" && strings.Contains(sel.Sel.Name, "Compile") &&
						len(call.Args) == 1 && isConst(call.Args[0]):
						t.Errorf("%s: regexp.%s of a constant pattern inside a function body; compile it once in a package-level var", fset.Position(call.Pos()), sel.Sel.Name)
					}
					return true
				})
				return false // the walk above covered nested literals
			})
		}
	}
}
