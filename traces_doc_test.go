package ropsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ropsim/internal/workload"
)

// traceExports parses the non-test files of internal/trace and returns
// every exported package-level symbol name plus every exported method
// as "Type.Method", so the docs gate tracks the package surface
// automatically instead of via a hand-kept list.
func traceExports(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("internal", "trace")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil || len(d.Recv.List) == 0 {
					names = append(names, d.Name.Name)
					continue
				}
				typ := d.Recv.List[0].Type
				if st, ok := typ.(*ast.StarExpr); ok {
					typ = st.X
				}
				if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
					names = append(names, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(names) < 20 {
		t.Fatalf("found only %d exported internal/trace symbols — parser out of sync?", len(names))
	}
	return names
}

// roptraceFlags extracts every flag name defined in cmd/roptrace's
// source, so new tool flags cannot ship undocumented.
func roptraceFlags(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", "roptrace", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`fs\.(?:String|Int|Int64|Bool|Duration)\("([^"]+)"`)
	seen := map[string]bool{}
	var flags []string
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			flags = append(flags, m[1])
		}
	}
	if len(flags) < 5 {
		t.Fatalf("found only %d roptrace flags — regexp out of sync?", len(flags))
	}
	return flags
}

// TestTracesDocComplete enforces the trace-format documentation
// contract: docs/TRACES.md must document every exported internal/trace
// symbol (package-level names and Type.Method pairs, extracted by
// go/ast), every cmd/roptrace flag, the new ropsim -capture-trace
// flag, the trace: workload-source syntax, the roptrace subcommands,
// every committed zoo trace, and the replay/fit metric names.
func TestTracesDocComplete(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("docs", "TRACES.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, sym := range traceExports(t) {
		if !strings.Contains(text, sym) {
			t.Errorf("docs/TRACES.md does not document internal/trace symbol %s", sym)
		}
	}
	for _, fl := range roptraceFlags(t) {
		if !strings.Contains(text, "-"+fl) {
			t.Errorf("docs/TRACES.md does not document roptrace flag -%s", fl)
		}
	}
	for _, must := range []string{
		"-capture-trace", "trace:",
		"roptrace gen", "convert", "inspect", "validate", "clone", "zoo",
		"records_replayed", "folded_lines", "fit_error",
		"replay-zoo", "ns_per_command",
		"CaptureTraces", "CoreTraces",
	} {
		if !strings.Contains(text, must) {
			t.Errorf("docs/TRACES.md does not mention %q", must)
		}
	}
	for _, name := range workload.ZooNames() {
		if !strings.Contains(text, "testdata/traces/"+name+".ropt") {
			t.Errorf("docs/TRACES.md zoo catalog is missing %s", name)
		}
	}
}
