package memctrl

import (
	"reflect"
	"sort"
	"testing"

	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// newStandardController builds a controller on a registered DRAM
// standard instead of the default DDR4-1600 test device.
func newStandardController(t *testing.T, name string, mode Mode) (*Controller, *event.Queue) {
	t.Helper()
	std, err := dram.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := std.Params(dram.Refresh1x)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mode)
	cfg.ROP.TrainRefreshes = 3
	q := &event.Queue{}
	dev := dram.NewDevice(p, std.Geometry(2))
	return MustNew(cfg, dev, q), q
}

// TestSameBankRefreshEmitsSlotGroups pins DDR5 same-bank refresh at the
// controller level: under ModeBankRefresh, each refresh command covers
// one whole slot — the same bank index in all 8 bank groups — so the
// observed command stream must arrive in groups of 8 CmdREFpb sharing
// one issue cycle, whose bank set is exactly the device's slot set.
func TestSameBankRefreshEmitsSlotGroups(t *testing.T) {
	c, q := newStandardController(t, "DDR5-4800", ModeBankRefresh)
	var refpb []dram.Command
	c.SetCommandObserver(func(cmd dram.Command) {
		if cmd.Kind == dram.CmdREFpb {
			refpb = append(refpb, cmd)
		}
	})
	defer c.SetCommandObserver(nil)

	dev := c.Device()
	p := dev.Params()
	q.RunUntil(4 * p.REFI)
	if len(refpb) == 0 {
		t.Fatal("no per-bank refresh commands observed")
	}
	groups := len(dev.SlotBanks(0))
	if len(refpb)%groups != 0 {
		t.Fatalf("observed %d CmdREFpb, not a multiple of the %d-bank slot size",
			len(refpb), groups)
	}
	for i := 0; i < len(refpb); i += groups {
		first := refpb[i]
		banks := make([]int, 0, groups)
		for _, cmd := range refpb[i : i+groups] {
			if cmd.At != first.At || cmd.Rank != first.Rank {
				t.Fatalf("slot group at %d not atomic: %+v vs %+v", first.At, first, cmd)
			}
			banks = append(banks, cmd.Bank)
		}
		sort.Ints(banks)
		want := append([]int(nil), dev.SlotBanks(dev.SlotOf(banks[0]))...)
		sort.Ints(want)
		if !reflect.DeepEqual(banks, want) {
			t.Fatalf("slot group banks %v, want slot set %v", banks, want)
		}
	}
	// One command per slot per cadence interval: REFI covers all 4 slots,
	// per rank. RefreshesIssued counts slot commands, not locked banks.
	slots := int64(dev.RefreshSlots())
	want := 2 /* ranks */ * slots * 4 /* intervals */
	if got := c.RefreshesIssued.Value(); got < want-4 || got > want+4 {
		t.Errorf("slot refreshes = %d, want ≈%d", got, want)
	}
}

// TestBankRefreshCadencePerStandard checks that the round-robin bank
// refresh sustains the standard's required rate — one full round per
// tREFI — for each native granularity: singleton slots on DDR4/LPDDR4,
// 8-bank slots on DDR5.
func TestBankRefreshCadencePerStandard(t *testing.T) {
	for _, name := range []string{"DDR4-1600", "DDR5-4800", "LPDDR4-3200"} {
		c, q := newStandardController(t, name, ModeBankRefresh)
		dev := c.Device()
		p := dev.Params()
		const intervals = 6
		q.RunUntil(intervals * p.REFI)
		want := int64(2 /* ranks */ * dev.RefreshSlots() * intervals)
		got := c.RefreshesIssued.Value()
		if got < want-8 || got > want+8 {
			t.Errorf("%s: refresh commands = %d, want ≈%d", name, got, want)
		}
		wantLocked := c.RefreshesIssued.Value() * int64(len(dev.SlotBanks(0))) * int64(p.RFCpb)
		if locked := dev.RefLockedCycles.Value(); locked != wantLocked {
			t.Errorf("%s: RefLockedCycles = %d, want %d", name, locked, wantLocked)
		}
	}
}

// TestAllModesRunOnAllStandards smoke-runs every refresh policy on every
// registered standard: the controller must construct and stay live (its
// scheduled refreshes issue) regardless of the device's native
// granularity.
func TestAllModesRunOnAllStandards(t *testing.T) {
	for _, std := range dram.Standards() {
		for m := range presets {
			mode := Mode(m)
			c, q := newStandardController(t, std.Name(), mode)
			p := c.Device().Params()
			if mode == ModeNoRefresh {
				// Rebuild with refresh disabled, as the simulator does.
				cfg := DefaultConfig(mode)
				q = &event.Queue{}
				c = MustNew(cfg, dram.NewDevice(dram.NoRefresh(p), std.Geometry(2)), q)
			}
			q.RunUntil(3 * dram.DDR4_1600(dram.Refresh1x).REFI)
			if mode == ModeNoRefresh {
				if got := c.RefreshesIssued.Value(); got != 0 {
					t.Errorf("%s/%v: %d refreshes under norefresh", std.Name(), mode, got)
				}
				continue
			}
			if got := c.RefreshesIssued.Value(); got == 0 {
				t.Errorf("%s/%v: controller issued no refreshes", std.Name(), mode)
			}
		}
	}
}
