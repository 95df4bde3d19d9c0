package sim

import (
	"testing"

	"ropsim/internal/dram"
	"ropsim/internal/memctrl"
	"ropsim/internal/workload"
)

// These integration tests pin down cross-module invariants that the
// per-package unit tests cannot see.

func TestAllBenchmarksRunInAllModes(t *testing.T) {
	// Every benchmark must complete under every refresh policy without
	// errors and with sane top-level metrics.
	for _, bench := range workload.Names() {
		for _, mode := range []memctrl.Mode{
			memctrl.ModeBaseline, memctrl.ModeNoRefresh,
			memctrl.ModeROP, memctrl.ModeElastic,
			memctrl.ModePausing, memctrl.ModeBankRefresh, memctrl.ModeROPBank,
			memctrl.ModeSubarrayRefresh,
		} {
			cfg := quick(Default(bench), 60_000)
			cfg.Mode = mode
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", bench, mode, err)
			}
			c := res.Cores[0]
			if c.IPC <= 0 || c.IPC > 1.0001 {
				t.Errorf("%s/%v: IPC %g out of range", bench, mode, c.IPC)
			}
			if res.TotalEnergy() <= 0 {
				t.Errorf("%s/%v: non-positive energy", bench, mode)
			}
			if mode == memctrl.ModeNoRefresh && res.Refreshes != 0 {
				t.Errorf("%s: no-refresh run refreshed", bench)
			}
		}
	}
}

func TestRefreshCountMatchesElapsedTime(t *testing.T) {
	// Refreshes per rank must track elapsed/tREFI within the
	// postponement bound.
	cfg := quick(Default("lbm"), 400_000)
	cfg.Capture = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := dram.DDR4_1600(dram.Refresh1x)
	want := int64(res.ElapsedBus / p.REFI)
	if res.Refreshes < want-2 || res.Refreshes > want+2 {
		t.Errorf("refreshes = %d, want ≈%d for elapsed %d", res.Refreshes, want, res.ElapsedBus)
	}
}

func TestEnergyOrdering(t *testing.T) {
	// For a fixed workload: no-refresh costs least (no REF energy and
	// shortest run); baseline costs most or ties ROP.
	run := func(mode memctrl.Mode) float64 {
		cfg := quick(Default("libquantum"), 400_000)
		cfg.Mode = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalEnergy()
	}
	base := run(memctrl.ModeBaseline)
	rop := run(memctrl.ModeROP)
	noref := run(memctrl.ModeNoRefresh)
	if noref >= base {
		t.Errorf("no-refresh energy %g not below baseline %g", noref, base)
	}
	if rop > base*1.01 {
		t.Errorf("ROP energy %g more than 1%% above baseline %g", rop, base)
	}
}

func TestElasticBetweenBaselineAndNoRefresh(t *testing.T) {
	// Elastic refresh may help bursty workloads but never beats the
	// no-refresh ideal and never issues refreshes late beyond the bound.
	cfg := quick(Default("bzip2"), 500_000)
	cfg.Mode = memctrl.ModeElastic
	re, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = memctrl.ModeNoRefresh
	rn, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Cores[0].IPC > rn.Cores[0].IPC+1e-9 {
		t.Errorf("elastic IPC %g above no-refresh %g", re.Cores[0].IPC, rn.Cores[0].IPC)
	}
	if re.Refreshes == 0 {
		t.Error("elastic issued no refreshes")
	}
}

func TestMorePressureMoreRefreshImpact(t *testing.T) {
	// The refresh gap (no-refresh IPC minus baseline IPC) must be larger
	// for an intensive benchmark than for a quiet one.
	gap := func(bench string) float64 {
		cfg := quick(Default(bench), 400_000)
		rb, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mode = memctrl.ModeNoRefresh
		rn, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return (rn.Cores[0].IPC - rb.Cores[0].IPC) / rn.Cores[0].IPC
	}
	if gap("lbm") <= gap("gobmk") {
		t.Error("intensive benchmark does not suffer more from refresh")
	}
}

func TestROPVariantsRun(t *testing.T) {
	// Every ablation variant must run end to end.
	for _, v := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"strict", func(c *Config) { c.ROPStrictTable = true }},
		{"vldp", func(c *Config) { c.ROPPredictor = 1 }},
		{"always", func(c *Config) { c.ROPGate = 1 }},
		{"never", func(c *Config) { c.ROPGate = 2 }},
	} {
		cfg := quick(Default("libquantum"), 150_000)
		cfg.Mode = memctrl.ModeROP
		v.mutate(&cfg)
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", v.name, err)
		}
	}
}

func TestFGRModesRun(t *testing.T) {
	for _, fgr := range []dram.RefreshMode{dram.Refresh1x, dram.Refresh2x, dram.Refresh4x} {
		cfg := quick(Default("libquantum"), 150_000)
		cfg.FGR = fgr
		cfg.Mode = memctrl.ModeROP
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", fgr, err)
		}
		if res.Refreshes == 0 {
			t.Errorf("%v: no refreshes", fgr)
		}
	}
	// Finer modes refresh more often.
	count := func(fgr dram.RefreshMode) int64 {
		cfg := quick(Default("libquantum"), 200_000)
		cfg.FGR = fgr
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Refreshes
	}
	if !(count(dram.Refresh4x) > count(dram.Refresh2x) && count(dram.Refresh2x) > count(dram.Refresh1x)) {
		t.Error("finer FGR modes did not refresh more often")
	}
}

func TestWeightedSpeedupPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched alone slice did not panic")
		}
	}()
	WeightedSpeedup(&Result{Cores: []CoreResult{{IPC: 1}}}, []float64{1, 2})
}

func TestTraceReplayMatchesGenerator(t *testing.T) {
	// Replaying a materialized trace must reproduce the generator run
	// exactly (the cpu model consumes the same records either way).
	cfg := quick(Default("bwaves"), 120_000)
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.MustGet("bwaves"),
		cfg.Seed*1_000_003+int64(len("bwaves")))
	recs := workload.Take(gen, 300_000) // more than the run needs
	replay := cfg
	replay.Traces = []workload.Stream{workload.NewSliceStream(recs)}
	viaTrace, err := Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cores[0].IPC != viaTrace.Cores[0].IPC ||
		direct.ElapsedBus != viaTrace.ElapsedBus {
		t.Errorf("trace replay diverged: IPC %g vs %g, elapsed %d vs %d",
			direct.Cores[0].IPC, viaTrace.Cores[0].IPC,
			direct.ElapsedBus, viaTrace.ElapsedBus)
	}
}

func TestTraceCountMismatchRejected(t *testing.T) {
	cfg := quick(Default("lbm", "gcc"), 50_000)
	cfg.Traces = []workload.Stream{workload.NewSliceStream(nil)}
	if _, err := Run(cfg); err == nil {
		t.Error("mismatched trace count accepted")
	}
}

func TestFullSimCommandStreamLegal(t *testing.T) {
	// End-to-end timing validation: every DRAM command a full simulation
	// issues (cores + LLC + controller) must satisfy the independent
	// JEDEC checker, in baseline and ROP modes. cfg.Check runs the
	// checker online over the whole stream; the command counts rule out
	// a run that passes by issuing nothing (bwaves at this length leaves
	// no dirty line for a writeback, so WR is not required).
	for _, mode := range []memctrl.Mode{memctrl.ModeBaseline, memctrl.ModeROP} {
		cfg := quick(Default("bwaves"), 250_000)
		cfg.Mode = mode
		cfg.Check = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, kind := range []string{"act", "pre", "rd", "ref"} {
			if n, _ := res.Metrics.Field("dram.num_"+kind, "value"); n <= 0 {
				t.Errorf("%v: dram.num_%s = %g, want > 0", mode, kind, n)
			}
		}
	}
}
