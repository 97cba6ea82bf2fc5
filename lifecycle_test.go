package pwsr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLifecycleAssertedOnce guards the one gate contract: the engines
// learn what a policy can do from exactly two type assertions — Gate
// once per tick run (RunCtx's body, runState.run) and once per
// NewParallelEngine — and the gate probes neither its inner policy nor
// its journal. It walks the non-test sources of
// internal/exec, internal/sched and the facade. Asserting a recycled
// value back to a package-private pointer type (a sync.Pool's Get) is
// no capability probe and is not counted.
func TestLifecycleAssertedOnce(t *testing.T) {
	files := []string{"pwsr.go"}
	for _, dir := range []string{"internal/exec", "internal/sched"} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				files = append(files, m)
			}
		}
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			where := "package scope"
			if fn, ok := d.(*ast.FuncDecl); ok {
				where = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok {
					return true
				}
				if star, ok := ta.Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && !id.IsExported() {
						return true
					}
				}
				typ := "type"
				if ta.Type != nil {
					typ = types.ExprString(ta.Type)
				}
				x := types.ExprString(ta.X)
				if strings.Contains(x, "Inner") || strings.Contains(x, "journal") {
					t.Errorf("%s: %s asserts %s.(%s): a gate must not probe its inner policy or its journal",
						fset.Position(ta.Pos()), where, x, typ)
				}
				got = append(got, filepath.Base(name)+" "+where+" "+x+".("+typ+")")
				return true
			})
		}
	}
	slices.Sort(got)
	want := []string{
		"engine.go run cfg.Policy.(Gate)",
		"parallel.go NewParallelEngine cfg.Gate.(Gate)",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("lifecycle type assertions:\n  %s\nwant exactly:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
