package ropsim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented is the repository's godoc-coverage
// gate (the "revive exported-comment rule" equivalent, kept in-tree so
// `go test ./...` enforces it in CI): every exported type, function,
// method, and package-level const/var in the simulator packages must
// carry a doc comment. The documentation convention — comments state
// units (bus cycles vs CPU cycles vs ns vs joules) and paper-section
// provenance where applicable — is enforced by review; this test
// enforces presence.
func TestExportedSymbolsDocumented(t *testing.T) {
	var missing []string
	for _, dir := range simDirs {
		undocumented, _ := auditDecls(t, dir)
		missing = append(missing, undocumented...)
	}
	if len(missing) > 0 {
		t.Errorf("%d exported symbols lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestNoPackageLevelHooks keeps test seams scoped to one run: a
// package-level var of func type, or an exported package-level bool, is
// a process-wide hook that every run in the process shares, so tests
// that set it cannot run in parallel and a campaign cannot set it for
// one run. Seams belong on the controller or on the run they affect.
func TestNoPackageLevelHooks(t *testing.T) {
	var hooks []string
	for _, dir := range simDirs {
		_, found := auditDecls(t, dir)
		hooks = append(hooks, found...)
	}
	if len(hooks) > 0 {
		t.Errorf("%d package-level mutable hooks:\n  %s",
			len(hooks), strings.Join(hooks, "\n  "))
	}
}

// simDirs are the simulator packages the declaration audits cover.
var simDirs = []string{
	".",
	"internal/addr",
	"internal/analysis",
	"internal/cache",
	"internal/campaign",
	"internal/core",
	"internal/cpu",
	"internal/dram",
	"internal/energy",
	"internal/event",
	"internal/memctrl",
	"internal/runner",
	"internal/sim",
	"internal/stats",
	"internal/trace",
	"internal/vldp",
	"internal/workload",
}

// auditDecls parses the non-test Go files of one directory. It reports
// every exported declaration without a doc comment, and every
// package-level var that is a hook: one of func type (declared or
// initialized with a func literal), or an exported one of type bool.
func auditDecls(t *testing.T, dir string) (undocumented, hooks []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	fset := token.NewFileSet()
	report := func(list *[]string, pos token.Pos, what, name string) {
		p := fset.Position(pos)
		*list = append(*list, fmt.Sprintf("%s:%d: %s %s", p.Filename, p.Line, what, name))
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil {
					report(&undocumented, d.Pos(), "func", funcName(d))
				}
			case *ast.GenDecl:
				// A doc comment on the decl covers every spec in the
				// block (the usual idiom for const/var groups); without
				// one, each exported spec needs its own.
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						if d.Doc == nil && s.Doc == nil {
							report(&undocumented, s.Pos(), "type", s.Name.Name)
						}
						// Exported fields of exported structs are part
						// of the API: each needs a doc or line comment
						// (units and provenance live there).
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								if fl.Doc != nil || fl.Comment != nil {
									continue
								}
								for _, fn := range fl.Names {
									if fn.IsExported() {
										report(&undocumented, fn.Pos(), "field", s.Name.Name+"."+fn.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for i, n := range s.Names {
							var value ast.Expr
							if i < len(s.Values) {
								value = s.Values[i]
							}
							if d.Tok == token.VAR && isHook(n, s.Type, value) {
								report(&hooks, n.Pos(), "var", n.Name)
							}
							if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(&undocumented, s.Pos(), "value", n.Name)
							}
						}
					}
				}
			}
		}
	}
	return undocumented, hooks
}

// isHook reports whether the package-level var name, declared with type
// typ (nil when inferred) and initial value (nil when absent), is a
// process-wide hook: of func type, or exported and of type bool.
func isHook(name *ast.Ident, typ, value ast.Expr) bool {
	if _, ok := typ.(*ast.FuncType); ok {
		return true
	}
	if _, ok := value.(*ast.FuncLit); ok && typ == nil {
		return true
	}
	if !name.IsExported() {
		return false
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name == "bool"
	}
	id, ok := value.(*ast.Ident)
	return ok && typ == nil && (id.Name == "true" || id.Name == "false")
}

// exportedReceiver reports whether fn is a plain function or a method
// on an exported type (methods on unexported types are not part of the
// package's godoc surface).
func exportedReceiver(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	typ := fn.Recv.List[0].Type
	for {
		switch v := typ.(type) {
		case *ast.StarExpr:
			typ = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			typ = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// funcName renders "Recv.Name" for methods and "Name" for functions.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	var recv string
	typ := fn.Recv.List[0].Type
	for recv == "" {
		switch v := typ.(type) {
		case *ast.StarExpr:
			typ = v.X
		case *ast.IndexExpr:
			typ = v.X
		case *ast.Ident:
			recv = v.Name
		default:
			recv = "?"
		}
	}
	return recv + "." + fn.Name.Name
}
