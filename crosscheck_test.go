package ropsim

import (
	"context"
	"fmt"
	"testing"

	"ropsim/internal/sim"
)

// TestCrossCheckWake drives full simulations in every original refresh
// mode through sim.RunCrossChecked, which sets memctrl.Config.CrossCheck
// on that run's controller only: the controller ticks at the original
// per-cycle polling cadence and panics if the exact wake computation
// (memctrl's nextWake) would have slept past any cycle where a tick
// issued a command or advanced controller state. This pins the wake
// discipline's exactness independently of the golden-table tests: those
// catch a divergence, this localizes it to the first missed cycle. The
// same ticks check the controller's request-pool identity (every
// request object is free, queued, or a pending buffer insert). The check
// is scoped to its own run, so every case runs in parallel.
func TestCrossCheckWake(t *testing.T) {
	o := QuickOptions()
	modes := []Mode{
		ModeBaseline, ModeNoRefresh, ModeROP, ModeElastic, ModePausing,
		ModeBankRefresh, ModeROPBank, ModeSubarrayRefresh,
	}
	benches := []string{"libquantum", "lbm"}
	if testing.Short() {
		benches = benches[:1]
	}
	for _, b := range benches {
		for _, mode := range modes {
			crossCheckCases(t, b, o.single(b, mode))
		}
	}
}

// TestCrossCheckWakeAllStandards extends the exact-wake cross-check to
// every registered standard (DDR5's grouped same-bank slots and
// LPDDR4's per-bank round-robin as well as DDR4) and all eleven
// refresh-policy presets, at 120 k instructions on libquantum.
func TestCrossCheckWakeAllStandards(t *testing.T) {
	o := QuickOptions()
	o.Instructions = 120_000
	modes := []Mode{
		ModeBaseline, ModeNoRefresh, ModeROP, ModeElastic, ModePausing,
		ModeBankRefresh, ModeROPBank, ModeSubarrayRefresh,
		ModeOutOfOrderBank, ModeDARP, ModeSARP,
	}
	if testing.Short() {
		modes = []Mode{ModeBaseline, ModeBankRefresh, ModeROPBank, ModeDARP, ModeSARP}
	}
	for _, std := range DRAMStandards() {
		for _, mode := range modes {
			cfg := o.single("libquantum", mode)
			cfg.Standard = std
			crossCheckCases(t, std, cfg)
		}
	}
}

// crossCheckCases runs cfg cross-checked in both page policies, each as
// a parallel subtest named prefix/mode/closed=….
func crossCheckCases(t *testing.T, prefix string, cfg Config) {
	t.Helper()
	for _, closed := range []bool{false, true} {
		cfg := cfg
		cfg.ClosedPage = closed
		t.Run(fmt.Sprintf("%s/%v/closed=%v", prefix, cfg.Mode, closed), func(t *testing.T) {
			t.Parallel()
			if _, err := sim.RunCrossChecked(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
