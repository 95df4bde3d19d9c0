package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"ropsim/internal/trace"
	"ropsim/internal/workload"
)

// TestGenMatchesGenerator checks that both output formats of gen decode
// to exactly the generator's record stream.
func TestGenMatchesGenerator(t *testing.T) {
	const n, seed = 5000, 3
	prof, err := workload.Get("lbm")
	if err != nil {
		t.Fatal(err)
	}
	want := workload.Take(workload.NewGenerator(prof, seed), n)
	for _, name := range []string{"lbm.ropt", "lbm.trace"} {
		out := filepath.Join(t.TempDir(), name)
		if err := cmdGen([]string{"-bench", "lbm", "-n", "5000", "-seed", "3", "-o", out}); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ReadRoptFile(out); (err == nil) != (filepath.Ext(out) == ".ropt") {
			t.Errorf("%s: written in the wrong format (.ropt decode: %v)", name, err)
		}
		got, err := trace.LoadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d records decoded, differ from the generator's %d", name, len(got), len(want))
		}
	}
}
