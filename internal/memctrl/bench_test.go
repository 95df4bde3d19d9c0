package memctrl

import (
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// Microbenchmarks for the controller hot paths: demand service through
// the per-bank index lists, and the exact-wake sleep through refresh
// cadence with no traffic. `make microbench` runs them
// (docs/PERFORMANCE.md §4).

func benchController(mode Mode) (*Controller, *event.Queue) {
	params := dram.DDR4_1600(dram.Refresh1x)
	if mode == ModeNoRefresh {
		params = dram.NoRefresh(params)
	}
	q := &event.Queue{}
	dev := dram.NewDevice(params, addr.Geometry{
		Channels: 1, Ranks: 2, Banks: 8, Rows: 512, ColumnLines: 64,
	})
	return MustNew(DefaultConfig(mode), dev, q), q
}

// reader enqueues one read at a time. Its completion callback is bound
// once, so a loop of reads counts the controller's allocations, not
// the harness's.
type reader struct {
	c      *Controller
	q      *event.Queue
	done   bool
	onDone func(event.Cycle)
}

func newReader(c *Controller, q *event.Queue) *reader {
	r := &reader{c: c, q: q}
	r.onDone = func(event.Cycle) { r.done = true }
	return r
}

// read enqueues one read and dispatches until its data returns.
func (r *reader) read(tb testing.TB, loc addr.Loc) {
	r.done = false
	if !r.c.EnqueueRead(loc, 0, r.onDone) {
		tb.Fatal("enqueue rejected")
	}
	for !r.done {
		if !r.q.Step() {
			tb.Fatal("queue drained before read completed")
		}
	}
}

// BenchmarkReadRowHit measures the row-hit fast path: every read after
// the first hits the open row.
func BenchmarkReadRowHit(b *testing.B) {
	r := newReader(benchController(ModeNoRefresh))
	r.read(b, addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.read(b, addr.Loc{Rank: 0, Bank: 0, Row: 5, Col: i % 64})
	}
}

// BenchmarkReadRowMiss measures the PRE+ACT row-miss path, alternating
// rows within one bank.
func BenchmarkReadRowMiss(b *testing.B) {
	r := newReader(benchController(ModeNoRefresh))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.read(b, addr.Loc{Rank: 0, Bank: 0, Row: i % 2, Col: 0})
	}
}

// BenchmarkIdleRefreshCadence measures simulating one tREFI of wall
// time with no traffic: the controller must sleep between refresh
// phases instead of ticking every cycle, so the per-iteration cost is
// a handful of events, not thousands.
func BenchmarkIdleRefreshCadence(b *testing.B) {
	c, q := benchController(ModeBaseline)
	refi := c.Device().Params().REFI
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.RunUntil(q.Now() + refi)
	}
}
