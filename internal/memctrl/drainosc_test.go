package memctrl

import (
	"bytes"
	"math/rand"
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
	"ropsim/internal/stats"
)

// trickleRun drives a write-only trickle: no reads, and so few writes
// that the write queue never exceeds WriteLow, which keeps the drain
// flag oscillating whenever a write waits. Half the writes arrive from
// an event scheduled during their own cycle, so they land after any
// sleeping chain's virtual tick for that cycle. It returns the command
// stream, the metrics snapshot JSON, and the number of ticks that fired.
func trickleRun(t *testing.T, mode Mode, polled bool) ([]dram.Command, []byte, int) {
	t.Helper()
	c, q := newController(t, mode, func(cfg *Config) { cfg.CrossCheck = polled })
	reg := stats.NewRegistry()
	c.RegisterMetrics(reg)
	c.Device().RegisterMetrics(reg.Sub("dram"))
	var cmds []dram.Command
	c.SetCommandObserver(func(cmd dram.Command) { cmds = append(cmds, cmd) })
	fires := 0
	c.tickObs = func(_ event.Cycle, fired bool) {
		if fired {
			fires++
		}
	}

	rng := rand.New(rand.NewSource(7))
	at := event.Cycle(0)
	for i := 0; i < 600; i++ {
		at += event.Cycle(rng.Intn(60))
		loc := addr.Loc{Rank: rng.Intn(2), Bank: rng.Intn(8), Row: rng.Intn(4), Col: rng.Intn(64)}
		write := func(event.Cycle) {
			if !c.EnqueueWrite(loc, 0) {
				t.Fatal("write rejected")
			}
			if n := c.WriteQueueLen(); n > c.cfg.WriteLow {
				t.Fatalf("write queue reached %d, above WriteLow %d: not a trickle", n, c.cfg.WriteLow)
			}
		}
		if i%2 == 0 {
			q.Schedule(at, write)
		} else {
			q.Schedule(at, func(now event.Cycle) { q.Schedule(now, write) })
		}
	}
	q.RunUntil(at + 5000)
	if c.WritesServed.Value() != 600 {
		t.Fatalf("%d of 600 writes served", c.WritesServed.Value())
	}
	var snap bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	return cmds, snap.Bytes(), fires
}

// TestDrainOscillationSleep pins the oscillation sleep against the
// per-cycle polling it replaces: with the drain flag flipping on every
// polled tick, the sleeping controller must issue the same commands at
// the same cycles and end with the same metrics while firing at most
// half as many ticks.
func TestDrainOscillationSleep(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeROP} {
		t.Run(mode.String(), func(t *testing.T) {
			pCmds, pSnap, pFires := trickleRun(t, mode, true)
			eCmds, eSnap, eFires := trickleRun(t, mode, false)
			if len(pCmds) != len(eCmds) {
				t.Fatalf("polled run issued %d commands, sleeping run %d", len(pCmds), len(eCmds))
			}
			for i := range pCmds {
				if pCmds[i] != eCmds[i] {
					t.Fatalf("command %d: polled %+v, sleeping %+v", i, pCmds[i], eCmds[i])
				}
			}
			if !bytes.Equal(pSnap, eSnap) {
				t.Fatalf("metrics differ:\npolled   %s\nsleeping %s", pSnap, eSnap)
			}
			if 2*eFires > pFires {
				t.Fatalf("sleeping run fired %d ticks, polled %d: want at most half", eFires, pFires)
			}
			t.Logf("%d commands; ticks fired: polled %d, sleeping %d", len(eCmds), pFires, eFires)
		})
	}
}
