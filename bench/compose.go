package main

import (
	"context"
	"errors"
	"fmt"

	"ropsim/internal/addr"
	"ropsim/internal/cache"
	"ropsim/internal/cpu"
	"ropsim/internal/dram"
	"ropsim/internal/energy"
	"ropsim/internal/event"
	"ropsim/internal/memctrl"
	"ropsim/internal/sim"
	"ropsim/internal/stats"
	"ropsim/internal/trace"
	"ropsim/internal/workload"
)

// composeRun is sim.Run rebuilt from the layers' public constructors,
// with a span around every call that crosses a layer boundary: the
// workload stream, the core's memory port and what it calls (LLC,
// address mapper, controller enqueue), the load-completion callbacks,
// the queue-space notification and each event-queue step. It must stay
// byte-identical to sim.Run; the harness compares the two digests on
// every traced rep and discards a rep that differs. This copy of the
// wiring goes away once the simulator carries a per-run probe that can
// supply the same spans.
func composeRun(ctx context.Context, cfg sim.Config, t *tracer) (*sim.Result, error) {
	if cfg.Check || cfg.Capture || cfg.CaptureTraces || cfg.Traces != nil {
		return nil, errors.New("compose: Check, Capture, CaptureTraces and Traces are not wired")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t.begin("sim.run")
	defer t.end()

	reg := stats.NewRegistry()
	q := &event.Queue{}
	std, err := dram.Lookup(cfg.Standard)
	if err != nil {
		return nil, err
	}
	geo := std.Geometry(cfg.Ranks)
	params, err := std.Params(cfg.FGR)
	if err != nil {
		return nil, err
	}
	params, err = dram.ScaleDensity(params, cfg.DensityGb)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == memctrl.ModeNoRefresh {
		params = dram.NoRefresh(params)
	}
	dev := dram.NewDevice(params, geo)
	dev.RegisterMetrics(reg.Sub("dram"))

	mcfg := memctrl.DefaultConfig(cfg.Mode)
	mcfg.ClosedPage = cfg.ClosedPage
	mcfg.ROP.SRAMLines = cfg.SRAMLines
	mcfg.ROP.Seed = cfg.Seed*7919 + 13
	if cfg.ROPTrainRefreshes > 0 {
		mcfg.ROP.TrainRefreshes = cfg.ROPTrainRefreshes
	}
	mcfg.ROP.Gate = cfg.ROPGate
	mcfg.ROP.StrictTable = cfg.ROPStrictTable
	mcfg.ROP.Predictor = cfg.ROPPredictor
	ctrl, err := memctrl.New(mcfg, dev, q)
	if err != nil {
		return nil, err
	}
	ctrl.RegisterMetrics(reg.Sub("memctrl"))

	var mapper addr.Mapper
	if cfg.RankPartition {
		mapper = addr.NewRankPartitioned(geo)
	} else {
		mapper = addr.NewInterleaved(geo)
	}
	llc, err := cache.New(cache.DefaultConfig(cfg.LLCBytes))
	if err != nil {
		return nil, err
	}
	ms := &tracedMem{
		t:       t,
		llc:     llc,
		mapper:  mapper,
		ctrl:    ctrl,
		readCap: mcfg.ReadQueueCap,
		wrCap:   mcfg.WriteQueueCap,
	}
	ctrl.SetSpaceNotify(ms.onSpace)
	llc.RegisterMetrics(reg.Sub("llc"))

	remaining := len(cfg.Benches)
	cores := make([]*cpu.Core, len(cfg.Benches))
	for i, bench := range cfg.Benches {
		var stream workload.Stream
		if trace.IsSource(bench) {
			var recs []workload.Record
			err := t.span("trace.load", func() (err error) {
				recs, err = trace.LoadFile(trace.SourcePath(bench))
				return err
			})
			if err != nil {
				return nil, err
			}
			rs := trace.NewReplayStream(recs)
			rs.RegisterMetrics(reg.Sub(fmt.Sprintf("trace.core%d", i)))
			stream = rs
		} else {
			prof, err := workload.Get(bench)
			if err != nil {
				return nil, err
			}
			stream = workload.NewGenerator(prof, cfg.Seed*1_000_003+int64(i)*97+int64(len(bench)))
		}
		cores[i] = cpu.New(cfg.CPU, i, tracedStream{t: t, s: stream}, ms, q, cfg.Instructions)
		cores[i].RegisterMetrics(reg.Sub(fmt.Sprintf("cpu.core%d", i)))
	}
	ms.cores = cores
	for _, c := range cores {
		c.Start(func() { remaining-- })
	}

	var elapsed event.Cycle
	err = t.span("event.loop", func() error {
		maxEvents := 1000 * cfg.Instructions * int64(len(cfg.Benches)+1)
		for remaining > 0 {
			t.begin("event.step")
			ok := q.Step()
			t.end()
			if !ok {
				return fmt.Errorf("compose: event queue drained with %d cores unfinished", remaining)
			}
			t.steps++
			if t.steps%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if t.steps > maxEvents {
				return fmt.Errorf("compose: exceeded %d events with %d cores unfinished", maxEvents, remaining)
			}
		}
		elapsed = q.Now()
		for _, c := range cores {
			if b := event.ToBus(c.Cycles()); b > elapsed {
				elapsed = b
			}
		}
		q.RunUntil(elapsed)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &sim.Result{ElapsedBus: elapsed, Capture: ctrl.CaptureLog()}
	for i, c := range cores {
		res.Cores = append(res.Cores, sim.CoreResult{
			Bench:        cfg.Benches[i],
			IPC:          c.IPC(),
			Instructions: c.Instructions(),
			CPUCycles:    c.Cycles(),
			MemReads:     c.MemReads.Value(),
			MemWrites:    c.MemWrites.Value(),
			LLCHitReads:  c.LLCHitReads.Value(),
		})
	}
	res.Refreshes = ctrl.RefreshesIssued.Value()
	res.MeanReadLatency = ctrl.ReadLatency.Value()
	if total := llc.Hits.Value() + llc.Misses.Value(); total > 0 {
		res.LLCMissRate = float64(llc.Misses.Value()) / float64(total)
	}

	var sramCounts energy.SRAMCounts
	sramCounts.Lines = cfg.SRAMLines
	if rop := ctrl.ROP(); rop != nil {
		buf := rop.Buffer()
		res.SRAMLookups = buf.Lookups.Value()
		res.SRAMHits = buf.Hits.Value()
		res.SRAMHitRate = buf.HitRate(0)
		res.SRAMServed = ctrl.SRAMServed.Value()
		sramCounts.Reads = buf.Lookups.Value()
		sramCounts.Writes = buf.Inserted.Value()
	}
	err = t.span("energy", func() (err error) {
		res.Energy, err = energy.Compute(energy.DDR4Power(), params, elapsed, energy.Counts{
			ACT:             dev.NumACT.Value(),
			RD:              dev.NumRD.Value(),
			WR:              dev.NumWR.Value(),
			REF:             dev.NumREF.Value(),
			RefLockedCycles: dev.RefLockedCycles.Value(),
			Ranks:           cfg.Ranks,
		}, sramCounts)
		return err
	})
	if err != nil {
		return nil, err
	}

	res.Energy.RegisterMetrics(reg.Sub("energy"))
	simReg := reg.Sub("sim")
	simReg.Gauge("elapsed_bus_cycles", func() float64 { return float64(res.ElapsedBus) })
	simReg.Gauge("cores", func() float64 { return float64(len(res.Cores)) })
	simReg.Gauge("llc_miss_rate", func() float64 { return res.LLCMissRate })
	simReg.Gauge("mean_read_latency", func() float64 { return res.MeanReadLatency })
	err = t.span("stats.snapshot", func() error {
		res.Metrics = reg.Snapshot()
		return nil
	})
	return res, err
}

// tracedStream times workload.Stream.Next.
type tracedStream struct {
	t *tracer
	s workload.Stream
}

func (s tracedStream) Next() (workload.Record, bool) {
	s.t.begin("workload.next")
	r, ok := s.s.Next()
	s.t.end()
	return r, ok
}

// tracedMem is sim's LLC + mapper + controller adapter with a span
// around every call it makes into those layers. Victim writebacks and
// write-allocate fetches that hit queue backpressure park in pending
// lists and retry when space frees.
type tracedMem struct {
	t       *tracer
	llc     *cache.Cache
	mapper  addr.Mapper
	ctrl    *memctrl.Controller
	readCap int
	wrCap   int

	pendingWB    []uint64
	pendingFetch []uint64
	cores        []*cpu.Core
}

// coreKey embeds the source core into a line index, as sim does, so core
// address spaces never alias.
func coreKey(line uint64, src int) uint64 {
	return line | uint64(src)<<44
}

func (m *tracedMem) access(key uint64, write bool) cache.Result {
	m.t.begin("llc.access")
	res := m.llc.Access(key, write)
	m.t.end()
	return res
}

func (m *tracedMem) mapLine(key uint64, src int) addr.Loc {
	m.t.begin("addr.map")
	loc := m.mapper.Map(key, src)
	m.t.end()
	return loc
}

func (m *tracedMem) locOf(key uint64) addr.Loc {
	return m.mapLine(key, int(key>>44))
}

func (m *tracedMem) enqueueRead(loc addr.Loc, src int, done func(event.Cycle)) bool {
	m.t.begin("memctrl.enqueue")
	ok := m.ctrl.EnqueueRead(loc, src, done)
	m.t.end()
	return ok
}

func (m *tracedMem) enqueueWrite(loc addr.Loc, src int) bool {
	m.t.begin("memctrl.enqueue")
	ok := m.ctrl.EnqueueWrite(loc, src)
	m.t.end()
	return ok
}

func (m *tracedMem) flushPending() {
	for len(m.pendingWB) > 0 && m.ctrl.WriteQueueLen() < m.wrCap {
		key := m.pendingWB[0]
		if !m.enqueueWrite(m.locOf(key), int(key>>44)) {
			break
		}
		m.pendingWB = m.pendingWB[1:]
	}
	for len(m.pendingFetch) > 0 && m.ctrl.ReadQueueLen() < m.readCap {
		key := m.pendingFetch[0]
		if !m.enqueueRead(m.locOf(key), int(key>>44), nil) {
			break
		}
		m.pendingFetch = m.pendingFetch[1:]
	}
}

func (m *tracedMem) onSpace() {
	m.t.begin("memctrl.space_notify")
	m.flushPending()
	for _, c := range m.cores {
		c.NotifySpace()
	}
	m.t.end()
}

func (m *tracedMem) handleEviction(res cache.Result) {
	if !res.EvictedValid {
		return
	}
	key := res.EvictedLine
	if len(m.pendingWB) > 0 || !m.enqueueWrite(m.locOf(key), int(key>>44)) {
		m.pendingWB = append(m.pendingWB, key)
	}
}

// Read implements cpu.Memory.
func (m *tracedMem) Read(line uint64, src int, done func(event.Cycle)) cpu.ReadStatus {
	m.t.begin("cpu.read")
	defer m.t.end()
	m.t.memAttempts++
	if m.ctrl.ReadQueueLen() >= m.readCap {
		m.t.memRejected++
		return cpu.ReadRejected
	}
	key := coreKey(line, src)
	res := m.access(key, false)
	if res.Hit {
		return cpu.ReadHit
	}
	timedDone := func(at event.Cycle) {
		m.t.begin("cpu.load_done")
		done(at)
		m.t.end()
	}
	if !m.enqueueRead(m.mapLine(key, src), src, timedDone) {
		m.t.memRejected++
		return cpu.ReadRejected
	}
	m.handleEviction(res)
	return cpu.ReadMiss
}

// Write implements cpu.Memory.
func (m *tracedMem) Write(line uint64, src int) bool {
	m.t.begin("cpu.write")
	defer m.t.end()
	m.t.memAttempts++
	if m.ctrl.WriteQueueLen() >= m.wrCap || m.ctrl.ReadQueueLen() >= m.readCap {
		m.t.memRejected++
		return false
	}
	key := coreKey(line, src)
	res := m.access(key, true)
	if !res.Hit {
		if !m.enqueueRead(m.mapLine(key, src), src, nil) {
			m.pendingFetch = append(m.pendingFetch, key)
		}
		m.handleEviction(res)
	}
	return true
}
