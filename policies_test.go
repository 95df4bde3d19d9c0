package ropsim

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// policiesArtifactOptions is artifactOptions restricted to a fast slice
// of the policies sweep: the first two paper mixes at the 8 Gb datasheet
// density and the 32 Gb projection.
func policiesArtifactOptions(jobs int) (ExpOptions, *Artifact) {
	o, art := artifactOptions(jobs)
	o.Mixes = Mixes()[:2]
	o.DensitiesGb = []int{8, 32}
	return o, art
}

// TestGoldenPoliciesArtifact is the policy lab's determinism gate: the
// quick policies sweep must render byte-identical tables and stats
// artifacts whether the harness runs serially or across 8 workers, and
// the table is locked against a testdata snapshot so refactors cannot
// silently shift the reported speedups. Regenerate deliberately with
//
//	go test -run TestGoldenPoliciesArtifact -update .
func TestGoldenPoliciesArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("golden comparison runs two mixes at two densities across six policies")
	}
	render := func(jobs int) (string, string) {
		o, art := policiesArtifactOptions(jobs)
		tab, err := Policies(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := art.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return tab.String(), buf.String()
	}
	serialTab, serialArt := render(1)
	parTab, parArt := render(8)
	if serialTab != parTab {
		t.Fatalf("policies tables differ between jobs=1 and jobs=8:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
			serialTab, parTab)
	}
	if serialArt != parArt {
		t.Fatalf("policies artifacts differ between jobs=1 and jobs=8:\n--- serial ---\n%.1500s\n--- jobs=8 ---\n%.1500s",
			serialArt, parArt)
	}

	path := filepath.Join("testdata", "policies_quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(serialTab), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update): %v", path, err)
	}
	if serialTab != string(want) {
		t.Errorf("policies table drifted from golden (regenerate with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			serialTab, want)
	}
}

// TestPoliciesTableShape smoke-runs a one-mix, one-density policies
// sweep and checks its invariants: speedups normalized to the native
// baseline (Baseline column exactly 1), every ratio positive, the
// no-refresh ideal at least matching the baseline within noise, and a
// positive refresh-busy fraction.
func TestPoliciesTableShape(t *testing.T) {
	o := QuickOptions()
	o.Mixes = Mixes()[:1]
	o.DensitiesGb = []int{32}
	tab, err := Policies(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "policies" {
		t.Errorf("table ID = %q, want policies", tab.ID)
	}
	// One mix row plus the per-density GEOMEAN row.
	if len(tab.Rows) != 2 {
		t.Fatalf("policies has %d rows, want 2: %v", len(tab.Rows), tab.Rows)
	}
	cell := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %v column %d: %v", row, i, err)
		}
		return v
	}
	row := tab.Rows[0]
	if row[0] != "32" {
		t.Errorf("density column = %q, want 32", row[0])
	}
	if base := cell(row, 2); base != 1 {
		t.Errorf("baseline speedup column = %v, want exactly 1", base)
	}
	noref := cell(row, 7)
	for i := 3; i <= 7; i++ {
		if v := cell(row, i); v <= 0 {
			t.Errorf("column %d non-positive: %v", i, row)
		}
	}
	if noref < 0.98 {
		t.Errorf("no-refresh speedup %.4f below baseline", noref)
	}
	if busy := cell(row, 8); busy <= 0 || busy > 50 {
		t.Errorf("implausible refresh-busy %.2f%%", busy)
	}
}

// refreshModeConsts parses internal/memctrl/policy.go and returns
// the names of every Mode constant, so documentation gates track the
// registered policy set automatically instead of a hand-kept list.
func refreshModeConsts(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("internal", "memctrl", "policy.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, n := range vs.Names {
				if strings.HasPrefix(n.Name, "Mode") && n.IsExported() {
					names = append(names, n.Name)
				}
			}
		}
	}
	if len(names) < 8 {
		t.Fatalf("found only %d Mode constants in policy.go — parser out of sync?", len(names))
	}
	return names
}

// TestPoliciesDocComplete enforces the policy-taxonomy contract: every
// Mode constant registered in internal/memctrl must be documented in
// docs/POLICIES.md, and the checked-in experiments_output.txt must
// include the policies sweep so the committed artifact cannot go stale
// against the experiment set.
func TestPoliciesDocComplete(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("docs", "POLICIES.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range refreshModeConsts(t) {
		if !strings.Contains(string(text), name) {
			t.Errorf("docs/POLICIES.md does not document %s", name)
		}
	}
	out, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"policies", "fig1", "xstd"} {
		if !strings.Contains(string(out), "== "+id) {
			t.Errorf("experiments_output.txt is stale: missing table %q (regenerate with go run ./cmd/ropexp -exp all)", id)
		}
	}
}
