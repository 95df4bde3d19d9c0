package memctrl

import (
	"testing"

	"ropsim/internal/addr"
)

// The request path allocates nothing in steady state: requests come
// from the controller's free list, completions schedule the caller's
// callback directly, and pending buffer inserts are pooled requests
// with a callback bound once. These tests count exact mallocs, so they
// are deterministic; they skip under -race, whose instrumentation
// allocates. Each test first warms up long enough for the event
// queue's calendar buckets to reach their working capacity: their
// one-time growth is the queue's, not the request path's.

// TestReadAllocsZero pins a steady-state demand read in ModeBaseline,
// refreshes included, at zero allocations for both row hits and row
// misses.
func TestReadAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, tc := range []struct {
		name string
		row  func(i int) int
	}{
		{"row-hit", func(int) int { return 5 }},
		{"row-miss", func(i int) int { return i % 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReader(benchController(ModeBaseline))
			i := 0
			read := func() {
				r.read(t, addr.Loc{Rank: 0, Bank: 0, Row: tc.row(i), Col: i % 64})
				i++
			}
			for i < 16000 {
				read()
			}
			refreshes := r.c.RefreshesIssued.Value()
			if n := testing.AllocsPerRun(2000, read); n != 0 {
				t.Errorf("%v allocations per read, want 0", n)
			}
			if r.c.RefreshesIssued.Value() == refreshes {
				t.Error("no refresh ran during the measured reads")
			}
		})
	}
}

// TestFillSessionAllocsZero pins a ModeROP fill session at zero
// allocations: fills are queued for a rank, issued, completed and
// staged into the SRAM buffer, then the rank refreshes. Candidate
// generation belongs to the ROP engine (internal/core), so the session
// is launched with a fixed candidate list, and the engine never leaves
// training so it launches no sessions of its own.
func TestFillSessionAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c, q := newController(t, ModeROP, func(cfg *Config) { cfg.ROP.TrainRefreshes = 1 << 30 })
	geo := testGeo()
	locs := make([]addr.Loc, 16)
	for i := range locs {
		locs[i] = addr.LocFromBankLine(geo, 0, 0, i%geo.Banks, int64(i))
	}
	buf := c.ROP().Buffer()
	rr := &c.refresh[0]
	session := func() {
		now := q.Now()
		rr.deadline = now + 2000
		c.launchFills(0, locs, now)
		c.ensureWake(now)
		want := buf.Inserted.Value() + int64(len(locs))
		for buf.Inserted.Value() < want || rr.phase != refIdle {
			if !q.Step() {
				t.Fatal("queue drained mid-session")
			}
		}
	}
	for i := 0; i < 1000; i++ {
		session()
	}
	refreshes := c.RefreshesIssued.Value()
	if n := testing.AllocsPerRun(50, session); n != 0 {
		t.Errorf("%v allocations per fill session, want 0", n)
	}
	if got := c.RefreshesIssued.Value() - refreshes; got < 51 {
		t.Errorf("%d refreshes over 51 sessions, want one per session", got)
	}
	if !c.poolBalanced() || c.insertsPending != 0 {
		t.Errorf("request pool unbalanced after the sessions: %d allocated, %d free, %d inserting",
			c.reqMade, len(c.free), c.insertsPending)
	}
}
