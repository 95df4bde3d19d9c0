package memctrl

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/core"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

func testGeo() addr.Geometry {
	return addr.Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 512, ColumnLines: 64}
}

func newController(t *testing.T, mode Mode, mutate func(*Config)) (*Controller, *event.Queue) {
	t.Helper()
	params := dram.DDR4_1600(dram.Refresh1x)
	if mode == ModeNoRefresh {
		params = dram.NoRefresh(params)
	}
	cfg := DefaultConfig(mode)
	cfg.ROP.TrainRefreshes = 3
	if mutate != nil {
		mutate(&cfg)
	}
	q := &event.Queue{}
	dev := dram.NewDevice(params, testGeo())
	return MustNew(cfg, dev, q), q
}

func TestSingleReadLatency(t *testing.T) {
	c, q := newController(t, ModeNoRefresh, nil)
	p := c.Device().Params()
	var doneAt event.Cycle
	loc := addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: 3}
	if !c.EnqueueRead(loc, 0, func(at event.Cycle) { doneAt = at }) {
		t.Fatal("enqueue rejected")
	}
	q.RunUntil(10000)
	// ACT issues in the same cycle as the enqueue (cycle 0), RD at RCD,
	// data at +CL+BL/2.
	want := (p.RCD + p.CL) + p.DataCycles()
	if doneAt != want {
		t.Errorf("read done at %d, want %d", doneAt, want)
	}
	if c.ReadsServed.Value() != 1 {
		t.Errorf("ReadsServed = %d", c.ReadsServed.Value())
	}
}

func TestRowHitSecondReadFaster(t *testing.T) {
	c, q := newController(t, ModeNoRefresh, nil)
	var first, second event.Cycle
	c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: 3}, 0,
		func(at event.Cycle) { first = at })
	c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: 4}, 0,
		func(at event.Cycle) { second = at })
	q.RunUntil(10000)
	if second <= first {
		t.Fatalf("second read done at %d, first at %d", second, first)
	}
	gap := second - first
	if gap > 8 {
		t.Errorf("row-hit follow-up took %d cycles after first, want small", gap)
	}
}

func TestWritesDrainEventually(t *testing.T) {
	c, q := newController(t, ModeNoRefresh, nil)
	for i := 0; i < 20; i++ {
		if !c.EnqueueWrite(addr.Loc{Rank: 0, Bank: i % 8, Row: 1, Col: i}, 0) {
			t.Fatalf("write %d rejected", i)
		}
	}
	q.RunUntil(100000)
	if c.WritesServed.Value() != 20 {
		t.Errorf("WritesServed = %d, want 20", c.WritesServed.Value())
	}
	if c.WriteQueueLen() != 0 {
		t.Errorf("write queue still has %d entries", c.WriteQueueLen())
	}
}

func TestWriteBatchingPrioritizesReads(t *testing.T) {
	c, q := newController(t, ModeNoRefresh, nil)
	// A handful of writes below the high watermark plus a read: the
	// read must finish before the writes start draining in batch.
	for i := 0; i < 8; i++ {
		c.EnqueueWrite(addr.Loc{Rank: 0, Bank: 1, Row: 2, Col: i}, 0)
	}
	var readDone event.Cycle
	c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: 0}, 0,
		func(at event.Cycle) { readDone = at })
	q.RunUntil(100000)
	if readDone == 0 {
		t.Fatal("read never completed")
	}
	p := c.Device().Params()
	noContention := (1 + p.RCD + p.CL) + p.DataCycles()
	if readDone > noContention+p.CCD {
		t.Errorf("read delayed to %d by buffered writes (uncontended %d)", readDone, noContention)
	}
}

func TestBaselineRefreshesPeriodically(t *testing.T) {
	c, q := newController(t, ModeBaseline, func(cfg *Config) { cfg.Capture = true })
	p := c.Device().Params()
	horizon := 20 * p.REFI
	q.Schedule(0, func(event.Cycle) {}) // prime the queue
	c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: 1, Col: 1}, 0, func(event.Cycle) {})
	q.RunUntil(horizon)
	refs := c.RefreshesIssued.Value()
	// 2 ranks x ~20 intervals, staggered start: allow slack.
	if refs < 30 || refs > 42 {
		t.Errorf("refreshes = %d, want ≈40", refs)
	}
	// Per-rank spacing must be ~tREFI.
	lastByRank := map[int]event.Cycle{}
	for _, ref := range c.CaptureLog().Refreshes {
		if prev, ok := lastByRank[ref.Rank]; ok {
			gap := ref.At - prev
			// A delayed first refresh shortens the next gap by the
			// closing time (PREs + tRP); allow that slack.
			if gap < p.REFI-4*p.RP || gap > p.REFI+2*p.RFC {
				t.Errorf("rank %d refresh gap %d, want ≈%d", ref.Rank, gap, p.REFI)
			}
		}
		lastByRank[ref.Rank] = ref.At
	}
}

func TestNoRefreshModeNeverRefreshes(t *testing.T) {
	c, q := newController(t, ModeNoRefresh, nil)
	c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: 1, Col: 1}, 0, func(event.Cycle) {})
	q.RunUntil(100000)
	if c.RefreshesIssued.Value() != 0 || c.Device().NumREF.Value() != 0 {
		t.Error("no-refresh mode issued refreshes")
	}
}

func TestBaselineReadBlockedByRefresh(t *testing.T) {
	c, q := newController(t, ModeBaseline, func(cfg *Config) { cfg.Capture = true })
	p := c.Device().Params()
	// Find the first refresh of rank 0 (staggered at REFI/2 for rank 0
	// of 2), then inject a read just after it starts.
	refAt := p.REFI / 2
	var doneAt event.Cycle
	q.Schedule(refAt+5, func(event.Cycle) {
		c.EnqueueRead(addr.Loc{Rank: 0, Bank: 2, Row: 9, Col: 0}, 0,
			func(at event.Cycle) { doneAt = at })
	})
	q.RunUntil(refAt + 4*p.RFC)
	if len(c.CaptureLog().Refreshes) == 0 {
		t.Fatal("no refresh captured")
	}
	first := c.CaptureLog().Refreshes[0]
	if first.Rank != 0 {
		t.Fatalf("first refresh on rank %d", first.Rank)
	}
	if doneAt == 0 {
		t.Fatal("blocked read never completed")
	}
	if doneAt < first.At+p.RFC {
		t.Errorf("read done at %d, before refresh end %d", doneAt, first.At+p.RFC)
	}
}

func TestOtherRankUnaffectedByRefresh(t *testing.T) {
	c, q := newController(t, ModeBaseline, func(cfg *Config) { cfg.Capture = true })
	p := c.Device().Params()
	refAt := p.REFI / 2 // rank 0's first refresh
	var doneAt event.Cycle
	q.Schedule(refAt+5, func(event.Cycle) {
		c.EnqueueRead(addr.Loc{Rank: 1, Bank: 2, Row: 9, Col: 0}, 0,
			func(at event.Cycle) { doneAt = at })
	})
	q.RunUntil(refAt + 2*p.RFC)
	uncontended := (1 + p.RCD + p.CL) + p.DataCycles()
	if doneAt == 0 || doneAt > refAt+5+uncontended+10 {
		t.Errorf("read on idle rank done at %d (injected %d)", doneAt, refAt+5)
	}
}

// driveSequentialReads schedules a steady sequential read stream on rank
// 0 bank 0 and returns a stop function.
func driveSequentialReads(c *Controller, q *event.Queue, gap event.Cycle, horizon event.Cycle) {
	line := int64(0)
	var step func(now event.Cycle)
	step = func(now event.Cycle) {
		loc := addr.LocFromBankLine(testGeo(), 0, 0, 0, line)
		c.EnqueueRead(loc, 0, func(event.Cycle) {})
		line++
		if now+gap <= horizon {
			q.Schedule(now+gap, step)
		}
	}
	q.Schedule(0, step)
}

func TestROPServesReadsDuringRefresh(t *testing.T) {
	c, q := newController(t, ModeROP, nil)
	p := c.Device().Params()
	horizon := 40 * p.REFI
	driveSequentialReads(c, q, 40, horizon)
	q.RunUntil(horizon)
	if c.RefreshesIssued.Value() == 0 {
		t.Fatal("no refreshes")
	}
	if c.ROP().PrefetchLaunches.Value() == 0 {
		t.Fatal("ROP never prefetched")
	}
	if c.SRAMServed.Value() == 0 {
		t.Error("no reads served from SRAM during refresh")
	}
	buf := c.ROP().Buffer()
	if buf.Inserted.Value() == 0 {
		t.Error("no lines were filled into the buffer")
	}
	if hr := buf.HitRate(0); hr < 0.5 {
		t.Errorf("SRAM hit rate %.2f for pure sequential stream, want ≥0.5", hr)
	}
}

func TestROPLowerLatencyThanBaseline(t *testing.T) {
	run := func(mode Mode) float64 {
		c, q := newController(t, mode, nil)
		p := c.Device().Params()
		horizon := 40 * p.REFI
		driveSequentialReads(c, q, 40, horizon)
		q.RunUntil(horizon)
		return c.ReadLatency.Value()
	}
	base := run(ModeBaseline)
	rop := run(ModeROP)
	if rop >= base {
		t.Errorf("ROP mean read latency %.1f not below baseline %.1f", rop, base)
	}
}

func TestQueueBackpressure(t *testing.T) {
	c, q := newController(t, ModeNoRefresh, func(cfg *Config) { cfg.ReadQueueCap = 4 })
	notified := 0
	c.SetSpaceNotify(func() { notified++ })
	accepted := 0
	for i := 0; i < 10; i++ {
		if c.EnqueueRead(addr.Loc{Rank: 0, Bank: i % 8, Row: i, Col: 0}, 0, func(event.Cycle) {}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d reads, want 4", accepted)
	}
	if c.QueueFullEvents.Value() != 6 {
		t.Errorf("QueueFullEvents = %d, want 6", c.QueueFullEvents.Value())
	}
	q.RunUntil(100000)
	if notified == 0 {
		t.Error("space notification never fired")
	}
}

var updateStreams = flag.Bool("update", false, "rewrite testdata/preset_streams.golden")

// TestCommandStreamLegalInAllModes runs random mixed traffic through
// every preset on every registered standard, under both page policies,
// and checks each issued command with the independent JEDEC checker.
// Each run's command stream (as a SHA-256) and refresh accounting are
// pinned against testdata/preset_streams.golden, so a refactor of the
// refresh machinery cannot silently move any preset — including those
// no experiment golden exercises. -short runs the default standard only.
// Regenerate deliberately with
//
//	go test -run TestCommandStreamLegalInAllModes -update ./internal/memctrl
func TestCommandStreamLegalInAllModes(t *testing.T) {
	path := filepath.Join("testdata", "preset_streams.golden")
	if *updateStreams && testing.Short() {
		t.Fatal("-update needs the full run, not -short")
	}
	golden, err := os.ReadFile(path)
	if err != nil && !*updateStreams {
		t.Fatalf("missing golden %s (generate with -update): %v", path, err)
	}
	want := map[string]string{}
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	var got strings.Builder
	for m := range presets {
		for _, std := range dram.Standards() {
			if testing.Short() && std.Name() != dram.DefaultStandard {
				continue
			}
			for _, closed := range []bool{false, true} {
				name, line := presetStreamLine(t, Mode(m), std, closed)
				if line != want[name] && !*updateStreams {
					t.Errorf("stream drifted from golden:\n got: %s\nwant: %s", line, want[name])
				}
				got.WriteString(line)
			}
		}
	}
	if *updateStreams {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if !testing.Short() && got.String() != string(golden) {
		t.Errorf("preset streams differ from %s in their set or order", path)
	}
}

// presetStreamLine runs one preset/standard/page-policy combination for
// 25 tREFI of seeded random traffic, fails the test on the first
// illegal command, and renders the run's name and golden line.
func presetStreamLine(t *testing.T, mode Mode, std dram.Standard, closed bool) (name, line string) {
	t.Helper()
	p, err := std.Params(dram.Refresh1x)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 25 * p.REFI
	if mode == ModeNoRefresh {
		p = dram.NoRefresh(p)
	}
	geo := std.Geometry(2)
	cfg := DefaultConfig(mode)
	cfg.ROP.TrainRefreshes = 3
	cfg.ClosedPage = closed
	q := &event.Queue{}
	c := MustNew(cfg, dram.NewDevice(p, geo), q)
	checker := dram.NewChecker(p, geo)
	if mode == ModeSARP {
		checker.REFsaDur = p.RFCpb
	}
	page := "open"
	if closed {
		page = "closed"
	}
	name = fmt.Sprintf("%s/%s/%s", mode, std.Name(), page)
	h := sha256.New()
	var illegal error
	c.SetCommandObserver(func(cmd dram.Command) {
		if err := checker.Check(cmd); err != nil && illegal == nil {
			illegal = fmt.Errorf("%+v: %w", cmd, err)
		}
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", cmd.Kind, cmd.At, cmd.Rank, cmd.Bank, cmd.Row, cmd.Col, cmd.Sub)
	})

	// Half the requests are reads continuing one sequential stream per
	// bank, which the ROP engine learns to prefetch; the rest go to one
	// of 16 rows spread across the bank, so every subarray sees traffic
	// and open rows are hit often.
	rng := rand.New(rand.NewSource(7))
	stream := make([]int64, geo.Ranks*geo.Banks)
	for i := range stream {
		stream[i] = int64(i%16) * int64(geo.Rows/16) * int64(geo.ColumnLines)
	}
	var drive func(now event.Cycle)
	drive = func(now event.Cycle) {
		r, b := rng.Intn(geo.Ranks), rng.Intn(geo.Banks)
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			i := r*geo.Banks + b
			c.EnqueueRead(addr.LocFromBankLine(geo, 0, r, b, stream[i]), 0, func(event.Cycle) {})
			stream[i]++
		case 4, 5:
			c.EnqueueWrite(addr.Loc{Rank: r, Bank: b, Row: rng.Intn(16) * (geo.Rows / 16), Col: rng.Intn(geo.ColumnLines)}, 0)
		default:
			c.EnqueueRead(addr.Loc{Rank: r, Bank: b, Row: rng.Intn(16) * (geo.Rows / 16), Col: rng.Intn(geo.ColumnLines)}, 0, func(event.Cycle) {})
		}
		if next := now + event.Cycle(rng.Intn(60)+1); next <= horizon {
			q.Schedule(next, drive)
		}
	}
	q.Schedule(0, drive)
	q.RunUntil(horizon)

	if illegal != nil {
		t.Fatalf("%s: illegal command %v", name, illegal)
	}
	refs := c.RefreshesIssued.Value()
	if mode == ModeNoRefresh && refs != 0 || mode != ModeNoRefresh && refs == 0 {
		t.Errorf("%s: %d refreshes in 25 tREFI", name, refs)
	}
	return name, fmt.Sprintf("%s %x refs=%d postponed=%d/%s pullins=%d piggybacks=%d sarp_cmds=%d fills=%d sram=%d\n",
		name, h.Sum(nil), refs,
		c.RefreshPostponedCycles.N(), strconv.FormatFloat(c.RefreshPostponedCycles.Value(), 'g', -1, 64),
		c.RefreshPullIns.Value(), c.DrainPiggybacks.Value(), c.SARPParallelServes.Value(),
		c.PrefetchFillsIssued.Value(), c.SRAMServed.Value())
}

func TestRefreshNeverPostponedBeyondBound(t *testing.T) {
	c, q := newController(t, ModeROP, func(cfg *Config) {
		cfg.Capture = true
		cfg.MaxRefreshDelay = 0.5
	})
	p := c.Device().Params()
	horizon := 30 * p.REFI
	driveSequentialReads(c, q, 25, horizon)
	q.RunUntil(horizon)
	for i, ref := range c.CaptureLog().Refreshes {
		_ = i
		// Postponement = issue time minus the due boundary; bounded by
		// MaxRefreshDelay plus closing time slack.
		_ = ref
	}
	maxPost := c.RefreshPostponedCycles
	if maxPost.N() == 0 {
		t.Fatal("no refreshes recorded")
	}
	bound := 0.5*float64(p.REFI) + float64(p.RC+p.RP)*10
	if maxPost.Value() > bound {
		t.Errorf("mean postponement %.0f exceeds bound %.0f", maxPost.Value(), bound)
	}
}

func TestDeterministicStats(t *testing.T) {
	run := func() (int64, int64, float64) {
		c, q := newController(t, ModeROP, nil)
		p := c.Device().Params()
		horizon := 20 * p.REFI
		driveSequentialReads(c, q, 33, horizon)
		q.RunUntil(horizon)
		return c.ReadsServed.Value(), c.SRAMServed.Value(), c.ReadLatency.Value()
	}
	r1, s1, l1 := run()
	r2, s2, l2 := run()
	if r1 != r2 || s1 != s2 || l1 != l2 {
		t.Errorf("nondeterministic: (%d,%d,%g) vs (%d,%d,%g)", r1, s1, l1, r2, s2, l2)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(ModeBaseline).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.ReadQueueCap = 0 },
		func(c *Config) { c.WriteHigh = c.WriteLow },
		func(c *Config) { c.WriteHigh = c.WriteQueueCap + 1 },
		func(c *Config) { c.MaxRefreshDelay = 9 },
		func(c *Config) { c.SRAMLatency = -1 },
		func(c *Config) { c.Mode = ModeROP; c.ROP = core.Config{} },
		func(c *Config) { c.Mode = ModeROPBank; c.ROP = core.Config{} },
		func(c *Config) { c.Mode = Mode(len(presets)) },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(ModeBaseline)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: Validate accepted bad config", i)
		}
	}
}

// TestModeString round-trips every preset through String and ParseMode,
// and checks that an unknown name is rejected with the valid ones.
func TestModeString(t *testing.T) {
	if ModeBaseline.String() != "baseline" || ModeNoRefresh.String() != "norefresh" ||
		ModeROP.String() != "rop" || ModeSARP.String() != "sarp" {
		t.Error("Mode.String wrong")
	}
	for m := range presets {
		mode := Mode(m)
		got, err := ParseMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", mode.String(), got, err, mode)
		}
	}
	if got := Mode(len(presets)).String(); got != fmt.Sprintf("Mode(%d)", len(presets)) {
		t.Errorf("out-of-table mode renders as %q", got)
	}
	_, err := ParseMode("refreshless")
	if err == nil {
		t.Fatal("ParseMode accepted an unknown name")
	}
	for _, p := range presets {
		if !strings.Contains(err.Error(), p.name) {
			t.Errorf("unknown-mode error %q does not list %q", err, p.name)
		}
	}
}

func TestElasticRefreshMaintainsRate(t *testing.T) {
	c, q := newController(t, ModeElastic, func(cfg *Config) { cfg.Capture = true })
	p := c.Device().Params()
	horizon := 30 * p.REFI
	driveSequentialReads(c, q, 40, horizon)
	q.RunUntil(horizon)
	// The average refresh rate must be preserved: with 2 ranks over 30
	// intervals, close to 60 refreshes (minus the trailing backlog of at
	// most 8 per rank).
	refs := c.RefreshesIssued.Value()
	if refs < 2*(30-int64(maxElasticBacklog)-2) {
		t.Errorf("elastic issued only %d refreshes over 30 intervals x 2 ranks", refs)
	}
	// Postponement must never exceed the JEDEC backlog bound.
	for i := 1; i < len(c.CaptureLog().Refreshes); i++ {
		prev, cur := c.CaptureLog().Refreshes[i-1], c.CaptureLog().Refreshes[i]
		if cur.Rank == prev.Rank && cur.At-prev.At > event.Cycle(maxElasticBacklog+1)*p.REFI {
			t.Errorf("refresh gap %d exceeds backlog bound", cur.At-prev.At)
		}
	}
}

func TestElasticDefersUnderLoad(t *testing.T) {
	// Under continuous demand, elastic postpones: the first refresh of a
	// loaded rank comes later than under auto-refresh.
	firstRef := func(mode Mode) event.Cycle {
		c, q := newController(t, mode, func(cfg *Config) { cfg.Capture = true })
		p := c.Device().Params()
		// Dense stream: the read queue stays non-empty, so elastic keeps
		// deferring until its backlog forces an issue.
		driveSequentialReads(c, q, 6, 20*p.REFI)
		q.RunUntil(20 * p.REFI)
		for _, ref := range c.CaptureLog().Refreshes {
			if ref.Rank == 0 {
				return ref.At
			}
		}
		t.Fatalf("no refresh for rank 0 in mode %v", mode)
		return 0
	}
	base := firstRef(ModeBaseline)
	elastic := firstRef(ModeElastic)
	if elastic <= base {
		t.Errorf("elastic first refresh at %d not later than baseline %d", elastic, base)
	}
}

func TestElasticIdleIssuesPromptly(t *testing.T) {
	// With no demand at all, elastic issues each refresh as it comes due
	// (no unnecessary backlog).
	c, q := newController(t, ModeElastic, nil)
	p := c.Device().Params()
	q.Schedule(0, func(event.Cycle) {})
	q.RunUntil(10 * p.REFI)
	refs := c.RefreshesIssued.Value()
	if refs < 16 { // 2 ranks x ~9-10 intervals
		t.Errorf("idle elastic issued %d refreshes, want ≈20", refs)
	}
}

func TestPausingRefreshCompletesAllSegments(t *testing.T) {
	c, q := newController(t, ModePausing, func(cfg *Config) { cfg.Capture = true })
	p := c.Device().Params()
	horizon := 20 * p.REFI
	driveSequentialReads(c, q, 40, horizon)
	q.RunUntil(horizon)
	refs := c.RefreshesIssued.Value()
	// Logical refreshes (all 8 segments) must keep the per-rank rate:
	// 2 ranks x ~20 intervals.
	if refs < 34 || refs > 42 {
		t.Errorf("pausing completed %d logical refreshes, want ≈38-40", refs)
	}
	// Total locked time per logical refresh ≈ tRFC plus resume overhead.
	locked := c.Device().RefLockedCycles.Value()
	perRef := float64(locked) / float64(refs)
	if perRef < float64(p.RFC) || perRef > float64(p.RFC)*1.2 {
		t.Errorf("locked cycles per refresh = %.0f, want ≈%d", perRef, p.RFC)
	}
}

func TestPausingServesReadsBetweenSegments(t *testing.T) {
	// A read arriving during a paused refresh completes long before a
	// full tRFC would have elapsed.
	c, q := newController(t, ModePausing, nil)
	p := c.Device().Params()
	refAt := p.REFI / 2 // rank 0's first refresh
	segLen := p.RFC / 8
	var doneAt event.Cycle
	q.Schedule(refAt+2, func(event.Cycle) {
		c.EnqueueRead(addr.Loc{Rank: 0, Bank: 2, Row: 9, Col: 0}, 0,
			func(at event.Cycle) { doneAt = at })
	})
	q.RunUntil(refAt + 3*p.RFC)
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	// Must beat the full-tRFC freeze by a clear margin: at worst it
	// waits out one segment plus service time.
	worstCase := refAt + 2 + 2*segLen + event.Cycle(p.RP+p.RCD+p.CL+40)
	if doneAt > worstCase {
		t.Errorf("read done at %d, want ≤ %d (pausing should interleave)", doneAt, worstCase)
	}
	if doneAt >= refAt+p.RFC {
		t.Errorf("read done at %d, no better than unpaused refresh end %d", doneAt, refAt+p.RFC)
	}
}

func TestPausingIdleRunsStraightThrough(t *testing.T) {
	// With no traffic, segments run back to back: locked time stays
	// within tRFC + small per-segment gaps, and the rate holds.
	c, q := newController(t, ModePausing, nil)
	p := c.Device().Params()
	q.RunUntil(10 * p.REFI)
	if refs := c.RefreshesIssued.Value(); refs < 16 {
		t.Errorf("idle pausing completed %d refreshes, want ≈18-20", refs)
	}
}

func TestBankRefreshOnlyLocksOneBank(t *testing.T) {
	c, q := newController(t, ModeBankRefresh, nil)
	p := c.Device().Params()
	// First bank refresh of rank 0 (2 ranks: rank 0's cadence slot is
	// REFIpb/2).
	refAt := p.REFI / event.Cycle(testGeo().Banks) / 2
	var otherDone, sameDone event.Cycle
	q.Schedule(refAt+2, func(event.Cycle) {
		// Bank 0 is the first target; bank 3 must be unaffected.
		c.EnqueueRead(addr.Loc{Rank: 0, Bank: 3, Row: 9, Col: 0}, 0,
			func(at event.Cycle) { otherDone = at })
		c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: 9, Col: 0}, 0,
			func(at event.Cycle) { sameDone = at })
	})
	q.RunUntil(refAt + 6*p.RFCpb)
	if otherDone == 0 || sameDone == 0 {
		t.Fatalf("reads did not complete: other=%d same=%d", otherDone, sameDone)
	}
	uncontended := refAt + 2 + event.Cycle(p.RCD+p.CL+20) + p.DataCycles()
	if otherDone > uncontended+10 {
		t.Errorf("read to sibling bank delayed to %d (uncontended ≈%d)", otherDone, uncontended)
	}
	if sameDone <= otherDone {
		t.Errorf("read to refreshing bank (%d) not slower than sibling (%d)", sameDone, otherDone)
	}
}

func TestBankRefreshRateAndLockTime(t *testing.T) {
	c, q := newController(t, ModeBankRefresh, nil)
	p := c.Device().Params()
	horizon := 10 * p.REFI
	q.RunUntil(horizon)
	refs := c.RefreshesIssued.Value()
	// Each rank refreshes one bank every REFI/banks: 2 ranks x 8 banks x
	// ~10 intervals.
	want := int64(2 * testGeo().Banks * 10)
	if refs < want-8 || refs > want+8 {
		t.Errorf("bank refreshes = %d, want ≈%d", refs, want)
	}
	locked := c.Device().RefLockedCycles.Value()
	if perRef := locked / refs; perRef != int64(p.RFCpb) {
		t.Errorf("locked per bank refresh = %d, want %d", perRef, p.RFCpb)
	}
}

func TestROPBankServesFrozenBank(t *testing.T) {
	c, q := newController(t, ModeROPBank, nil)
	p := c.Device().Params()
	horizon := 20 * p.REFI
	driveSequentialReads(c, q, 10, horizon)
	q.RunUntil(horizon)
	if c.ROP().PrefetchLaunches.Value() == 0 {
		t.Fatal("ROP-bank never prefetched")
	}
	if c.SRAMServed.Value() == 0 {
		t.Error("no reads served from SRAM in bank mode")
	}
	if c.RefreshesIssued.Value() == 0 {
		t.Error("no bank refreshes issued")
	}
}

// TestEveryAcceptedReadCompletes is the controller's core liveness
// invariant: under random traffic, every read the controller accepts
// must eventually complete, in every refresh mode, and every request
// object must return to the controller's free list.
func TestEveryAcceptedReadCompletes(t *testing.T) {
	for _, mode := range []Mode{
		ModeBaseline, ModeNoRefresh, ModeROP, ModeElastic,
		ModePausing, ModeBankRefresh, ModeROPBank, ModeSubarrayRefresh,
	} {
		c, q := newController(t, mode, nil)
		p := dram.DDR4_1600(dram.Refresh1x)
		rng := rand.New(rand.NewSource(int64(mode) + 99))
		accepted, completed := 0, 0
		horizon := 25 * p.REFI
		var drive func(now event.Cycle)
		drive = func(now event.Cycle) {
			loc := addr.Loc{
				Rank: rng.Intn(2), Bank: rng.Intn(8),
				Row: rng.Intn(512), Col: rng.Intn(64),
			}
			if rng.Intn(5) == 0 {
				c.EnqueueWrite(loc, 0)
			} else if c.EnqueueRead(loc, 0, func(event.Cycle) { completed++ }) {
				accepted++
			}
			next := now + event.Cycle(rng.Intn(40)+1)
			if next <= horizon {
				q.Schedule(next, drive)
			}
		}
		q.Schedule(0, drive)
		q.RunUntil(horizon + 10*p.REFI) // generous drain time
		if accepted == 0 {
			t.Fatalf("%v: no reads accepted", mode)
		}
		if completed != accepted {
			t.Errorf("%v: %d of %d accepted reads completed", mode, completed, accepted)
		}
		// Drained, every pooled request is back on the free list.
		if !c.poolBalanced() || len(c.free) != c.reqMade {
			t.Errorf("%v: %d requests allocated, %d free after drain", mode, c.reqMade, len(c.free))
		}
	}
}

func TestSubarrayRefreshMaintainsRate(t *testing.T) {
	c, q := newController(t, ModeSubarrayRefresh, nil)
	p := c.Device().Params()
	q.RunUntil(4 * p.REFI)
	// 2 ranks x 8 banks x 8 subarrays per tREFI x ~4 intervals.
	want := int64(2 * 8 * p.Subarrays * 4)
	refs := c.RefreshesIssued.Value()
	if refs < want*9/10 || refs > want*11/10 {
		t.Errorf("subarray refreshes = %d, want ≈%d", refs, want)
	}
}

func TestSubarrayRefreshBarelyBlocks(t *testing.T) {
	// A steady stream suffers far less under subarray refresh than
	// under rank refresh.
	elapsedFor := func(mode Mode) event.Cycle {
		c, q := newController(t, mode, nil)
		p := c.Device().Params()
		horizon := 20 * p.REFI
		driveSequentialReads(c, q, 25, horizon)
		q.RunUntil(horizon + 4*p.REFI)
		return event.Cycle(c.ReadLatency.Value() * 100)
	}
	rank := elapsedFor(ModeBaseline)
	sa := elapsedFor(ModeSubarrayRefresh)
	if sa >= rank {
		t.Errorf("subarray mean latency (%d) not below rank refresh (%d)", sa, rank)
	}
}

func TestBankModeRequiresTiming(t *testing.T) {
	params := dram.DDR4_1600(dram.Refresh1x)
	params.RFCpb = 0
	q := &event.Queue{}
	dev := dram.NewDevice(params, testGeo())
	if _, err := New(DefaultConfig(ModeBankRefresh), dev, q); err == nil {
		t.Error("ModeBankRefresh without RFCpb did not error")
	}
}

func TestROPBankWithNoRefreshParamsIsInert(t *testing.T) {
	// Refresh-disabled timings with a ROP mode must construct cleanly
	// and simply never refresh or prefetch.
	params := dram.NoRefresh(dram.DDR4_1600(dram.Refresh1x))
	q := &event.Queue{}
	dev := dram.NewDevice(params, testGeo())
	c := MustNew(DefaultConfig(ModeROPBank), dev, q)
	c.EnqueueRead(addr.Loc{Rank: 0, Bank: 0, Row: 1, Col: 1}, 0, func(event.Cycle) {})
	q.RunUntil(100000)
	if c.RefreshesIssued.Value() != 0 {
		t.Error("refreshes issued with REFI=0")
	}
}

// TestRequestPoolConserved drives ROP traffic that exercises every way
// a request leaves the controller — issue, SRAM probes of queued reads
// at a freeze, fill drops at the deadline, fills merged into a demand
// burst, and staged buffer inserts — and checks the pool identity
// (allocated = free + queued + pending inserts) between events.
func TestRequestPoolConserved(t *testing.T) {
	for _, mode := range []Mode{ModeROP, ModeROPBank} {
		c, q := newController(t, mode, func(cfg *Config) {
			cfg.ROP.Gate = core.GateAlways
			cfg.MaxRefreshDelay = 0.01 // fill sessions overrun: fills drop
		})
		p := c.Device().Params()
		rng := rand.New(rand.NewSource(7))
		horizon := 30 * p.REFI
		var next [2]int64 // per-rank sequential line cursor
		var drive func(now event.Cycle)
		drive = func(now event.Cycle) {
			if !c.poolBalanced() {
				t.Fatalf("%v at %d: %d requests allocated, %d free, %d+%d+%d queued, %d inserting",
					mode, now, c.reqMade, len(c.free), len(c.readQ), len(c.writeQ), len(c.fillQ), c.insertsPending)
			}
			r := rng.Intn(2)
			line := next[r]
			if rng.Intn(4) == 0 {
				line = max(line-int64(rng.Intn(8)), 0) // revisit a recent line
			} else {
				next[r]++
			}
			loc := addr.LocFromBankLine(testGeo(), 0, r, int(line%8), line/8)
			if rng.Intn(6) == 0 {
				c.EnqueueWrite(loc, 0)
			} else {
				c.EnqueueRead(loc, 0, func(event.Cycle) {})
			}
			if at := now + event.Cycle(rng.Intn(25)+1); at <= horizon {
				q.Schedule(at, drive)
			}
		}
		q.Schedule(0, drive)
		q.RunUntil(horizon + 5*p.REFI)
		if c.FillsDropped.Value() == 0 || c.SRAMServed.Value() == 0 {
			t.Errorf("%v: %d fills dropped, %d SRAM serves; the run must exercise both",
				mode, c.FillsDropped.Value(), c.SRAMServed.Value())
		}
		if !c.poolBalanced() || len(c.free) != c.reqMade {
			t.Errorf("%v: %d requests allocated, %d free after drain", mode, c.reqMade, len(c.free))
		}
	}
}
