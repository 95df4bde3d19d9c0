package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ropsim/internal/cache"
	"ropsim/internal/memctrl"
	"ropsim/internal/runner"
)

// arenaA is a single-core ROP run on a 1 MiB LLC.
func arenaA() Config {
	cfg := quick(Default("libquantum"), 60_000)
	cfg.Mode = memctrl.ModeROP
	cfg.LLCBytes = cache.MiB
	return cfg
}

// arenaB differs from arenaA on every axis an arena reuses storage for:
// an 8 MiB LLC, four cores instead of one, NoRefresh instead of ROP,
// and a trace: replay on core 0 (the other cores are generators, so
// the arena's generator for core 0 sits out this run).
func arenaB() Config {
	cfg := quick(Default("trace:../../testdata/traces/pointer.ropt", "gcc", "lbm", "bzip2"), 20_000)
	cfg.Mode = memctrl.ModeNoRefresh
	cfg.LLCBytes = 8 * cache.MiB
	return cfg
}

// snapshotJSON renders a result's metric snapshot.
func snapshotJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsFresh fails unless res is what a fresh Run of cfg returns: the
// same snapshot bytes and the same per-core results.
func sameAsFresh(t *testing.T, step string, cfg Config, res *Result) {
	t.Helper()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotJSON(t, res), snapshotJSON(t, want)) {
		t.Errorf("%s: the arena run's snapshot differs from a fresh Run's", step)
	}
	if !reflect.DeepEqual(res.Cores, want.Cores) || res.ElapsedBus != want.ElapsedBus {
		t.Errorf("%s: the arena run's core results differ from a fresh Run's", step)
	}
}

// pollLimit is a context that reports cancellation from its n-th Err
// poll on: a run under it is cancelled deterministically, part way.
type pollLimit struct {
	context.Context
	n int
}

func (c *pollLimit) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestArenaReuseMatchesFreshRun runs A, B, A on one arena, then a run
// of B cancelled part way, then clean runs of A and B. Every completed
// run must match a fresh Run byte for byte: nothing a run leaves in
// the queue, the LLC or the generators may leak into the next.
func TestArenaReuseMatchesFreshRun(t *testing.T) {
	var a Arena
	ctx := context.Background()
	for i, cfg := range []Config{arenaA(), arenaB(), arenaA()} {
		res, err := a.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, fmt.Sprintf("run %d", i), cfg, res)
	}
	if _, err := a.Run(&pollLimit{Context: ctx, n: 3}, arenaB()); !errors.Is(err, context.Canceled) {
		t.Fatalf("the run cancelled part way returned %v, want context.Canceled", err)
	}
	for i, cfg := range []Config{arenaA(), arenaB()} {
		res, err := a.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, fmt.Sprintf("run %d after the cancelled one", i), cfg, res)
	}
}

// TestArenaPerWorkerBatch runs a mixed batch on two workers, each with
// its own arena, the way the experiment harness does (run it under
// -race): every result matches a fresh Run of its config.
func TestArenaPerWorkerBatch(t *testing.T) {
	var cfgs []Config
	for i := 0; i < 3; i++ {
		a, b := arenaA(), arenaB()
		a.Seed, b.Seed = int64(i+1), int64(i+1)
		cfgs = append(cfgs, a, b)
	}
	tasks := make([]runner.StateTask[*Arena, *Result], len(cfgs))
	for i, cfg := range cfgs {
		tasks[i] = runner.StateTask[*Arena, *Result]{
			Label: fmt.Sprint("run ", i),
			Run:   func(ctx context.Context, a *Arena) (*Result, error) { return a.Run(ctx, cfg) },
		}
	}
	results, err := runner.RunWith(context.Background(), runner.New(2), func() *Arena { return new(Arena) }, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		sameAsFresh(t, tasks[i].Label, cfgs[i], res)
	}
}
