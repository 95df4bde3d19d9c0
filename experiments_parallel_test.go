package ropsim

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ropsim/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// equivOptions is the scale of the serial-vs-parallel equivalence runs:
// QuickOptions run lengths, with the benchmark set trimmed in -short
// mode so the race-detector CI lane stays fast.
func equivOptions(t *testing.T) ExpOptions {
	o := QuickOptions()
	if testing.Short() {
		o.Benches = []string{"libquantum", "bzip2", "lbm", "gcc"}
		o.Mixes = []Mix{{Name: "WLt", Members: []string{"libquantum", "lbm", "bzip2", "gobmk"}}}
	}
	return o
}

// renderAll renders a set of tables into one byte stream.
func renderAll(tables ...*Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSerialParallelEquivalence is the archetype's headline test: the
// same experiments at the same seed must render byte-identical tables
// whether the harness runs serially (Jobs=1) or across 8 workers.
func TestSerialParallelEquivalence(t *testing.T) {
	run := func(jobs int) string {
		o := equivOptions(t)
		o.Jobs = jobs
		f1, err := Fig1(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		f2, f3, f4, t1, err := RefreshBehaviour(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		f10, f11, err := Fig10and11(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		g, err := AblationGate(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return renderAll(f1, f2, f3, f4, t1, f10, f11, g)
	}

	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("serial and parallel tables differ:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// TestGoldenQuickTables locks the QuickOptions Fig1, Table I, policy
// and future-bank outputs against testdata snapshots, so refactors
// cannot silently shift the reported IPC/energy/lambda/beta numbers or
// the related-work and finer-granularity refresh policies (elastic,
// pausing, bankrefresh, rop-bank, subarray). Regenerate deliberately
// with
//
//	go test -run TestGoldenQuickTables -update .
func TestGoldenQuickTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden comparison runs the full QuickOptions benchmark set")
	}
	o := QuickOptions()
	o.Jobs = 4

	f1, err := Fig1(o)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, t1, err := RefreshBehaviour(o)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := PolicyComparison(o)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FutureBankRefresh(o)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		file  string
		table *Table
	}{
		{"fig1_quick.golden", f1},
		{"tab1_quick.golden", t1},
		{"policy_quick.golden", pol},
		{"future-bank_quick.golden", fb},
	} {
		path := filepath.Join("testdata", tc.file)
		got := tc.table.String()
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (generate with -update): %v", path, err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", tc.table.ID, got, want)
		}
	}
}

// TestSeedStability guards against hidden global state: two simulations
// of an identical Config must produce identical Result structs. Without
// this, sharing a process between pool workers could never be safe.
func TestSeedStability(t *testing.T) {
	for _, cfg := range []Config{
		func() Config {
			c := Default("libquantum")
			c.Mode = ModeROP
			c.Instructions = 200_000
			c.ROPTrainRefreshes = 5
			return c
		}(),
		func() Config {
			c := Default("libquantum", "lbm", "bzip2", "gobmk")
			c.Mode = ModeBaseline
			c.Instructions = 80_000
			return c
		}(),
	} {
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("two runs of %v/%d cores diverged:\n%+v\nvs\n%+v",
				cfg.Mode, len(cfg.Benches), a, b)
		}
	}
}

// TestParallelErrorPropagation checks that a failing run aborts the
// whole experiment with the run's label in the error, under parallel
// execution just like serial.
func TestParallelErrorPropagation(t *testing.T) {
	o := QuickOptions()
	o.Benches = []string{"libquantum", "nosuchbench"}
	for _, jobs := range []int{1, 8} {
		o.Jobs = jobs
		_, err := Fig1(o)
		if err == nil {
			t.Fatalf("jobs=%d: bogus benchmark did not fail", jobs)
		}
		if !strings.Contains(err.Error(), "fig1/nosuchbench") {
			t.Errorf("jobs=%d: error %q missing failing run's label", jobs, err)
		}
	}
}

// TestExperimentCancellation checks that a cancelled ExpOptions.Ctx
// aborts an experiment with the context's error.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := QuickOptions()
	o.Jobs = 4
	o.Ctx = ctx
	_, err := Fig1(o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSharedPoolStats checks that a caller-provided pool accumulates
// run counts and timings across experiments, which is what ropexp
// reports after an evaluation.
func TestSharedPoolStats(t *testing.T) {
	o := QuickOptions()
	o.Benches = []string{"libquantum", "bzip2"}
	o.Pool = runner.New(4)
	if _, err := Fig1(o); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationGate(o); err != nil {
		t.Fatal(err)
	}
	s := o.Pool.Stats()
	// Fig1: 2 benches x (base, noref); AblationGate: 2 x (base + 3 gates).
	if want := int64(2*2 + 2*4); s.Completed != want {
		t.Errorf("pool completed %d runs, want %d", s.Completed, want)
	}
	if s.Failed != 0 || s.Wall <= 0 || s.Busy <= 0 {
		t.Errorf("implausible stats: %+v", s)
	}
}
