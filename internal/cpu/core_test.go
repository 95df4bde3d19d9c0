package cpu

import (
	"testing"

	"ropsim/internal/event"
	"ropsim/internal/workload"
)

// fakeMem is a deterministic Memory: lines below hitBelow hit, others
// miss with a fixed latency.
type fakeMem struct {
	q        *event.Queue
	hitBelow uint64
	missLat  event.Cycle
	rejects  int // reject the first N operations
	space    func()

	reads, writes, misses int
}

func (m *fakeMem) Read(line uint64, src int, done func(event.Cycle)) ReadStatus {
	if m.rejects > 0 {
		m.rejects--
		return ReadRejected
	}
	m.reads++
	if line < m.hitBelow {
		return ReadHit
	}
	m.misses++
	m.q.Schedule(m.q.Now()+m.missLat, done)
	return ReadMiss
}

func (m *fakeMem) Write(line uint64, src int) bool {
	if m.rejects > 0 {
		m.rejects--
		if m.space != nil {
			sp := m.space
			m.q.Schedule(m.q.Now()+5, func(event.Cycle) { sp() })
		}
		return false
	}
	m.writes++
	return true
}

// trace builds a SliceStream of n records with fixed gap and line
// assignment fn.
func trace(n int, gap uint32, line func(i int) uint64, write bool) *workload.SliceStream {
	recs := make([]workload.Record, n)
	for i := range recs {
		recs[i] = workload.Record{Gap: gap, Line: line(i), Write: write}
	}
	return workload.NewSliceStream(recs)
}

func runCore(t *testing.T, cfg Config, tr workload.Stream, mem *fakeMem, limit int64) *Core {
	t.Helper()
	q := mem.q
	c := New(cfg, 0, tr, mem, q, limit)
	finished := false
	c.Start(func() { finished = true })
	mem.space = c.NotifySpace
	q.Run(10_000_000)
	if !finished {
		t.Fatal("core never finished")
	}
	return c
}

func TestPureComputeIPC(t *testing.T) {
	q := &event.Queue{}
	mem := &fakeMem{q: q, hitBelow: 1 << 62, missLat: 100}
	cfg := DefaultConfig()
	cfg.HitExtraCPU = 0
	c := runCore(t, cfg, trace(10, 99, func(i int) uint64 { return uint64(i) }, false), mem, 1000)
	// All hits with no extra latency: IPC = 1.
	if got := c.IPC(); got < 0.99 || got > 1.01 {
		t.Errorf("IPC = %g, want ≈1", got)
	}
	if c.LLCHitReads.Value() != 10 {
		t.Errorf("hits = %d, want 10", c.LLCHitReads.Value())
	}
}

func TestHitLatencyLowersIPC(t *testing.T) {
	q := &event.Queue{}
	mem := &fakeMem{q: q, hitBelow: 1 << 62, missLat: 100}
	cfg := DefaultConfig()
	cfg.HitExtraCPU = 10
	c := runCore(t, cfg, trace(50, 9, func(i int) uint64 { return uint64(i) }, false), mem, 500)
	// Each of 50 ops adds 10 extra cycles on 500 instructions.
	want := 500.0 / 1000.0
	if got := c.IPC(); got < want*0.95 || got > want*1.05 {
		t.Errorf("IPC = %g, want ≈%g", got, want)
	}
}

func TestMissesOverlapWithMLP(t *testing.T) {
	q := &event.Queue{}
	lat := event.Cycle(100) // 400 CPU cycles
	mem := &fakeMem{q: q, hitBelow: 0, missLat: lat}
	cfg := DefaultConfig()
	cfg.MSHRs = 8
	cfg.ROBWindow = 1000
	// 8 back-to-back misses (gap 0): they all overlap.
	c := runCore(t, cfg, trace(8, 0, func(i int) uint64 { return uint64(i + 1000) }, false), mem, 9)
	serial := 8 * 400
	if int(c.Cycles()) >= serial/2 {
		t.Errorf("8 misses took %d CPU cycles; expected strong overlap (serial %d)", c.Cycles(), serial)
	}
}

func TestMSHRLimitSerializes(t *testing.T) {
	q := &event.Queue{}
	lat := event.Cycle(100)
	mem := &fakeMem{q: q, hitBelow: 0, missLat: lat}
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	cfg.ROBWindow = 1000
	c := runCore(t, cfg, trace(8, 0, func(i int) uint64 { return uint64(i + 1000) }, false), mem, 9)
	// With one MSHR, loads serialize: at least 7 full latencies.
	if int(c.Cycles()) < 7*400 {
		t.Errorf("8 misses with 1 MSHR took only %d CPU cycles", c.Cycles())
	}
	if c.StallMSHR.Value() == 0 {
		t.Error("no MSHR stalls recorded")
	}
}

func TestROBWindowStalls(t *testing.T) {
	q := &event.Queue{}
	lat := event.Cycle(250) // 1000 CPU cycles
	mem := &fakeMem{q: q, hitBelow: 0, missLat: lat}
	cfg := DefaultConfig()
	cfg.MSHRs = 8
	cfg.ROBWindow = 64
	// One miss then a long compute stretch: the window fills and the
	// core must wait out the miss latency.
	recs := []workload.Record{
		{Gap: 0, Line: 1 << 30},
		{Gap: 5000, Line: 0}, // hit far later
	}
	c := runCore(t, cfg, workload.NewSliceStream(recs), mem, 5003)
	// Progress past the window stalls until the load returns (~1000
	// cycles), then compute resumes: total ≥ 1000 + (5000-64).
	if int(c.Cycles()) < 5900 {
		t.Errorf("cycles = %d, want ≥ 5900 (ROB stall enforced)", c.Cycles())
	}
	if c.StallROB.Value() == 0 {
		t.Error("no ROB stalls recorded")
	}
}

func TestWriteBackpressure(t *testing.T) {
	q := &event.Queue{}
	mem := &fakeMem{q: q, hitBelow: 1 << 62, missLat: 10, rejects: 3}
	c := runCore(t, DefaultConfig(), trace(5, 10, func(i int) uint64 { return uint64(i) }, true), mem, 100)
	if mem.writes != 5 {
		t.Errorf("writes = %d, want 5 (rejected ops must retry)", mem.writes)
	}
	if !c.Finished() {
		t.Error("core stuck after rejections")
	}
}

func TestFinishWaitsForOutstandingLoads(t *testing.T) {
	q := &event.Queue{}
	mem := &fakeMem{q: q, hitBelow: 0, missLat: 500}
	cfg := DefaultConfig()
	c := New(cfg, 0, trace(2, 0, func(i int) uint64 { return uint64(i + 10) }, false), mem, q, 3)
	finishedAt := event.Cycle(-1)
	c.Start(func() { finishedAt = q.Now() })
	q.Run(1_000_000)
	if finishedAt < 500 {
		t.Errorf("finished at %d, before miss latency %d elapsed", finishedAt, 500)
	}
	if !c.Finished() {
		t.Fatal("not finished")
	}
}

func TestInstructionLimitRespected(t *testing.T) {
	q := &event.Queue{}
	mem := &fakeMem{q: q, hitBelow: 1 << 62, missLat: 10}
	c := runCore(t, DefaultConfig(), trace(1000, 7, func(i int) uint64 { return uint64(i) }, false), mem, 100)
	if c.Instructions() != 100 {
		t.Errorf("instructions = %d, want exactly 100", c.Instructions())
	}
}

func TestTraceExhaustionFinishes(t *testing.T) {
	q := &event.Queue{}
	mem := &fakeMem{q: q, hitBelow: 1 << 62, missLat: 10}
	c := runCore(t, DefaultConfig(), trace(3, 5, func(i int) uint64 { return uint64(i) }, false), mem, 1<<40)
	if !c.Finished() {
		t.Error("core did not finish on trace exhaustion")
	}
	if c.Instructions() != 3*(5+1) {
		t.Errorf("instructions = %d, want 18", c.Instructions())
	}
}

func TestGapLargerThanRemainingLimit(t *testing.T) {
	q := &event.Queue{}
	mem := &fakeMem{q: q, hitBelow: 1 << 62, missLat: 10}
	c := runCore(t, DefaultConfig(), trace(5, 1000, func(i int) uint64 { return uint64(i) }, false), mem, 500)
	if c.Instructions() != 500 {
		t.Errorf("instructions = %d, want 500 (gap truncated at limit)", c.Instructions())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []Config{
		{ROBWindow: 0, MSHRs: 8, HitExtraCPU: 1},
		{ROBWindow: 64, MSHRs: 0, HitExtraCPU: 1},
		{ROBWindow: 64, MSHRs: 8, HitExtraCPU: -1},
	} {
		if cfg.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// missStream is an endless stream of loads to distinct lines.
type missStream struct{ line uint64 }

func (s *missStream) Next() (workload.Record, bool) {
	s.line++
	return workload.Record{Gap: 3, Line: s.line}, true
}

// TestMissIssueAllocsZero pins the core's miss path at zero
// allocations: every load passes its MSHR slot's pre-bound completion
// callback. The count is exact, so it skips under -race, whose
// instrumentation allocates.
func TestMissIssueAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	q := &event.Queue{}
	mem := &fakeMem{q: q, missLat: 100}
	c := New(DefaultConfig(), 0, &missStream{}, mem, q, 1<<62)
	c.Start(nil)
	// Warm up until the event queue's calendar buckets reach their
	// working capacity.
	q.RunUntil(200_000)
	misses := mem.misses
	if n := testing.AllocsPerRun(100, func() { q.RunUntil(q.Now() + 1000) }); n != 0 {
		t.Errorf("%v allocations per 1000 bus cycles of misses, want 0", n)
	}
	if mem.misses == misses {
		t.Error("no misses issued while measuring")
	}
}

// oooMem answers every 13th read with ReadRejected (space frees three
// cycles later), lines divisible by 7 with ReadHit, and every other
// read as a miss whose latency varies with the line, so younger loads
// often complete before older ones. It checks the core's MSHR state at
// every read and completion.
type oooMem struct {
	t      *testing.T
	q      *event.Queue
	c      *Core
	calls  int
	misses map[int64]bool // instPos of every accepted miss
}

func (m *oooMem) Read(line uint64, src int, done func(event.Cycle)) ReadStatus {
	m.checkSlots()
	m.calls++
	if m.calls%13 == 0 {
		m.q.Schedule(m.q.Now()+3, func(event.Cycle) { m.c.NotifySpace() })
		return ReadRejected
	}
	if line%7 == 0 {
		return ReadHit
	}
	pos := m.c.instCount
	m.misses[pos] = true
	m.q.Schedule(m.q.Now()+event.Cycle(20+line*37%150), func(at event.Cycle) {
		m.complete(pos, done, at)
	})
	return ReadMiss
}

func (m *oooMem) Write(line uint64, src int) bool { return true }

// checkSlots asserts that the outstanding loads and the free slots
// partition the MSHRs, and that only accepted misses hold a slot.
func (m *oooMem) checkSlots() {
	c := m.c
	seen := make([]bool, len(c.mshrs))
	for _, s := range append(append([]int(nil), c.loads...), c.free...) {
		if seen[s] {
			m.t.Fatalf("MSHR slot %d held twice (loads %v, free %v)", s, c.loads, c.free)
		}
		seen[s] = true
	}
	if len(c.loads)+len(c.free) != len(c.mshrs) {
		m.t.Fatalf("loads %v and free %v do not cover %d slots", c.loads, c.free, len(c.mshrs))
	}
	for _, s := range c.loads {
		if !m.misses[c.mshrs[s].instPos] {
			m.t.Fatalf("slot %d holds instPos %d, which was no miss", s, c.mshrs[s].instPos)
		}
	}
}

// complete delivers the completion of the miss issued at instPos pos
// and asserts that it marks that load, and only that load.
func (m *oooMem) complete(pos int64, done func(event.Cycle), at event.Cycle) {
	c := m.c
	slot := -1
	before := map[int]bool{}
	for _, s := range c.loads {
		before[s] = c.mshrs[s].done
		if c.mshrs[s].instPos == pos {
			slot = s
		}
	}
	if slot < 0 || before[slot] {
		m.t.Fatalf("load at instPos %d not outstanding at its completion", pos)
	}
	done(at)
	for s, wasDone := range before {
		if got, want := c.mshrs[s].done, wasDone || s == slot; got != want {
			m.t.Fatalf("completing instPos %d: slot %d done=%v, want %v", pos, s, got, want)
		}
	}
	m.checkSlots()
}

// TestOutOfOrderCompletionsMarkTheirSlot runs loads that complete out
// of order, mixed with hits and rejections, at several MSHR counts.
// The timing results are pinned: which slot a load takes must not
// change simulated behaviour.
func TestOutOfOrderCompletionsMarkTheirSlot(t *testing.T) {
	for _, want := range []struct {
		mshrs, stallMSHR, stallROB int
		cycles                     event.CPUCycle
		ipc                        float64
	}{
		{mshrs: 1, cycles: 425356, ipc: 0.09403887567120248, stallMSHR: 1106},
		{mshrs: 2, cycles: 242168, ipc: 0.165174589541145, stallMSHR: 1106},
		{mshrs: 8, cycles: 106684, ipc: 0.3749390724007349, stallROB: 1102},
	} {
		recs := make([]workload.Record, 3000)
		for i := range recs {
			recs[i] = workload.Record{Gap: uint32(i * 7 % 61), Line: uint64(i)*3 + 1}
		}
		q := &event.Queue{}
		m := &oooMem{t: t, q: q, misses: map[int64]bool{}}
		cfg := DefaultConfig()
		cfg.MSHRs = want.mshrs
		c := New(cfg, 0, workload.NewSliceStream(recs), m, q, 40000)
		m.c = c
		c.Start(nil)
		q.Run(10_000_000)
		if !c.Finished() {
			t.Fatalf("MSHRs=%d: core never finished", want.mshrs)
		}
		if c.MemReads.Value() != 1107 || c.LLCHitReads.Value() != 185 {
			t.Errorf("MSHRs=%d: %d misses, %d hits; want 1107, 185",
				want.mshrs, c.MemReads.Value(), c.LLCHitReads.Value())
		}
		if c.Cycles() != want.cycles || c.IPC() != want.ipc ||
			c.StallMSHR.Value() != int64(want.stallMSHR) || c.StallROB.Value() != int64(want.stallROB) {
			t.Errorf("MSHRs=%d: cycles %d IPC %v stalls MSHR %d ROB %d; want %d %v %d %d",
				want.mshrs, c.Cycles(), c.IPC(), c.StallMSHR.Value(), c.StallROB.Value(),
				want.cycles, want.ipc, want.stallMSHR, want.stallROB)
		}
		if len(c.free) != want.mshrs {
			t.Errorf("MSHRs=%d: %d slots free after the run", want.mshrs, len(c.free))
		}
	}
}
