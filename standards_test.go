package ropsim

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ropsim/internal/dram"
)

// standardArtifactOptions is artifactOptions for a non-default DRAM
// standard: the same two-benchmark quick Fig1 scale, simulated on the
// named standard.
func standardArtifactOptions(standard string, jobs int) (ExpOptions, *Artifact) {
	o, art := artifactOptions(jobs)
	o.Standard = standard
	return o, art
}

// TestGoldenStandardArtifacts locks quick-campaign stats artifacts for
// the non-DDR4 standards (DDR5 same-bank refresh, LPDDR4 per-bank
// refresh) against testdata snapshots, and requires jobs=1 and jobs=8 to
// produce byte-identical artifacts on each. Regenerate deliberately with
//
//	go test -run TestGoldenStandardArtifacts -update .
func TestGoldenStandardArtifacts(t *testing.T) {
	for _, std := range []string{"DDR5-4800", "LPDDR4-3200"} {
		t.Run(std, func(t *testing.T) {
			render := func(jobs int) string {
				o, art := standardArtifactOptions(std, jobs)
				if _, err := Fig1(o); err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				var buf bytes.Buffer
				if err := art.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			serial := render(1)
			if parallel := render(8); serial != parallel {
				t.Fatalf("%s artifacts differ between jobs=1 and jobs=8:\n--- serial ---\n%.1500s\n--- jobs=8 ---\n%.1500s",
					std, serial, parallel)
			}
			name := "stats_fig1_" + strings.ToLower(std) + "_quick.golden.json"
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (generate with -update): %v", path, err)
			}
			if serial != string(want) {
				t.Errorf("%s artifact drifted from golden (regenerate with -update if intended):\n--- got ---\n%.1500s\n--- want ---\n%.1500s",
					std, serial, want)
			}
		})
	}
}

// TestStandardsCheckClean runs every registered standard under its
// native refresh pairing with the JEDEC timing checker armed: one
// illegal command fails the run. This is the conformance suite's
// full-simulation tier — the same check CI repeats per standard.
func TestStandardsCheckClean(t *testing.T) {
	o := QuickOptions()
	o.Instructions = 150_000
	o.Check = true
	for _, std := range dram.Standards() {
		base, rop := ModeBaseline, ModeROP
		if std.Refresh().Granularity != dram.GranularityAllBank {
			base, rop = ModeBankRefresh, ModeROPBank
		}
		modes := []Mode{base, rop}
		if testing.Short() {
			modes = modes[:1]
		}
		for _, mode := range modes {
			cfg := o.single("libquantum", mode)
			cfg.Standard = std.Name()
			if _, err := Run(cfg); err != nil {
				t.Errorf("%s/%v: %v", std.Name(), mode, err)
			}
		}
	}
}

// TestCrossStandardTable smoke-runs the xstd sweep at quick scale and
// checks its shape and invariants: one row per standard × bench, IPC
// columns positive, the no-refresh ideal at least matching the
// refreshing baseline within noise, and a positive refresh-busy
// fraction on every standard.
func TestCrossStandardTable(t *testing.T) {
	o := QuickOptions()
	o.Benches = []string{"libquantum"}
	tab, err := CrossStandard(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "xstd" {
		t.Errorf("table ID = %q, want xstd", tab.ID)
	}
	if want := len(DRAMStandards()); len(tab.Rows) != want {
		t.Fatalf("xstd has %d rows, want %d", len(tab.Rows), want)
	}
	cell := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %v column %d: %v", row, i, err)
		}
		return v
	}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		std := row[0]
		seen[std] = true
		ipcBase, ipcROP, ipcNoref := cell(row, 2), cell(row, 3), cell(row, 4)
		busy := cell(row, 6)
		if ipcBase <= 0 || ipcROP <= 0 || ipcNoref <= 0 {
			t.Errorf("%s: non-positive IPC row %v", std, row)
		}
		if ipcNoref < ipcBase*0.98 {
			t.Errorf("%s: no-refresh IPC %.4f below baseline %.4f", std, ipcNoref, ipcBase)
		}
		if busy <= 0 || busy > 50 {
			t.Errorf("%s: implausible refresh-busy %.2f%%", std, busy)
		}
	}
	for _, std := range DRAMStandards() {
		if !seen[std] {
			t.Errorf("xstd sweep missing standard %s", std)
		}
	}
}

// TestUnknownStandardFailsEarly pins the config-validation path: a
// mistyped standard name must fail before any simulation work, with an
// error that lists the valid choices.
func TestUnknownStandardFailsEarly(t *testing.T) {
	cfg := Default("libquantum")
	cfg.Standard = "DDR6-9000"
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown standard")
	} else if !strings.Contains(err.Error(), "DDR5-4800") {
		t.Errorf("error should list registered standards, got: %v", err)
	}
}

// TestStandardsDocComplete enforces the documentation contract: every
// registered standard must be named in DESIGN.md (the device-model
// section) and EXPERIMENTS.md (the cross-standard sweep recipe), so a
// new registration cannot ship undocumented.
func TestStandardsDocComplete(t *testing.T) {
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, std := range DRAMStandards() {
			if !strings.Contains(string(text), std) {
				t.Errorf("%s does not mention standard %s", doc, std)
			}
		}
	}
}
