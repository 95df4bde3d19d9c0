// Package sim wires the full simulated system together — workload
// generators, trace-driven cores, the shared LLC, the address mapper,
// the memory controller with its refresh policy, and the energy model —
// and runs single-core or multiprogrammed experiments, producing the
// metrics the paper reports (IPC, weighted speedup inputs, energy, SRAM
// buffer hit rate).
package sim

import (
	"context"
	"fmt"
	"time"

	"ropsim/internal/addr"
	"ropsim/internal/cache"
	"ropsim/internal/core"
	"ropsim/internal/cpu"
	"ropsim/internal/dram"
	"ropsim/internal/energy"
	"ropsim/internal/event"
	"ropsim/internal/memctrl"
	"ropsim/internal/stats"
	"ropsim/internal/trace"
	"ropsim/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Benches lists the benchmark per core (one entry = single-core).
	Benches []string
	// Traces, when non-nil, replaces the named generators with explicit
	// record streams (one per core, parallel to Benches, which then only
	// labels the cores). Streams are consumed destructively; reuse
	// requires fresh streams.
	Traces []workload.Stream
	// Mode selects baseline auto-refresh, idealized no-refresh, or ROP.
	Mode memctrl.Mode
	// RankPartition maps each core onto its own rank (the paper's
	// rank-aware mapping; Baseline-RP and ROP use it, Baseline does not).
	RankPartition bool
	// Ranks is the rank count (paper: 1 single-core, 4 for 4 cores).
	Ranks int
	// LLCBytes sizes the shared last-level cache.
	LLCBytes int
	// SRAMLines sizes the ROP prefetch buffer.
	SRAMLines int
	// ROPTrainRefreshes overrides the ROP training period length when
	// positive (the paper uses 50; short test runs use less).
	ROPTrainRefreshes int
	// ROPGate selects the prefetch launch policy (ablations).
	ROPGate core.GatePolicy
	// ROPStrictTable uses the paper's verbatim delta-replacement rule.
	ROPStrictTable bool
	// ROPPredictor selects the candidate generator (ablations).
	ROPPredictor core.Predictor
	// FGR selects the fine-grained refresh mode (paper default 1x).
	FGR dram.RefreshMode
	// Standard names the DRAM standard to simulate (dram.Lookup); empty
	// selects dram.DefaultStandard, the paper's DDR4-1600 device.
	Standard string
	// DensityGb scales the standard's refresh cycle times to a projected
	// die density via dram.ScaleDensity (tRFC grows, tREFI stays fixed);
	// zero keeps the 8 Gb datasheet timings.
	DensityGb int
	// Instructions is the per-core instruction budget.
	Instructions int64
	// Seed drives workload generation and the ROP gate.
	Seed int64
	// ClosedPage selects the closed-page row policy (default: the
	// paper's open-page policy).
	ClosedPage bool
	// Capture records the request/refresh timeline for offline analysis.
	Capture bool
	// CaptureTraces records each core's delivered request stream
	// (Result.CoreTraces) for later byte-exact replay via Traces or the
	// .ropt trace files (ropsim -capture-trace, docs/TRACES.md).
	CaptureTraces bool
	// CPU configures the core model.
	CPU cpu.Config

	// Check enables the JEDEC protocol sanitizer: every DRAM command the
	// controller issues is validated against the timing checker, and the
	// run aborts on the first violation (the -check flag).
	Check bool
	// RunTimeout bounds the run's wall-clock time; the watchdog aborts
	// with a diagnostic dump when it passes (0 = no limit).
	RunTimeout time.Duration
	// LivelockEvents is the forward-progress window: the watchdog aborts
	// when this many events dispatch without one instruction retiring.
	// Zero selects DefaultLivelockEvents; negative disables the detector.
	LivelockEvents int64
}

// Default returns the paper's configuration for the given benchmarks:
// single-core runs use 1 rank and a 2 MB LLC; multiprogrammed runs use
// 4 ranks and 4 MB (§V-A).
func Default(benches ...string) Config {
	cfg := Config{
		Benches:      benches,
		Mode:         memctrl.ModeBaseline,
		Ranks:        1,
		LLCBytes:     2 * cache.MiB,
		SRAMLines:    64,
		FGR:          dram.Refresh1x,
		Instructions: 2_000_000,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
	}
	if len(benches) > 1 {
		cfg.Ranks = 4
		cfg.LLCBytes = 4 * cache.MiB
	}
	return cfg
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if len(c.Benches) == 0 {
		return fmt.Errorf("sim: no benchmarks")
	}
	if c.Traces == nil {
		for _, b := range c.Benches {
			if trace.IsSource(b) {
				if trace.SourcePath(b) == "" {
					return fmt.Errorf("sim: trace source %q names no file", b)
				}
				continue
			}
			if _, err := workload.Get(b); err != nil {
				return err
			}
		}
	} else if len(c.Traces) != len(c.Benches) {
		return fmt.Errorf("sim: %d traces for %d cores", len(c.Traces), len(c.Benches))
	}
	if c.Ranks <= 0 {
		return fmt.Errorf("sim: ranks must be positive")
	}
	if c.Instructions <= 0 {
		return fmt.Errorf("sim: instruction budget must be positive")
	}
	if c.SRAMLines <= 0 {
		return fmt.Errorf("sim: SRAM lines must be positive")
	}
	if err := cache.DefaultConfig(c.LLCBytes).Validate(); err != nil {
		return err
	}
	if c.RunTimeout < 0 {
		return fmt.Errorf("sim: negative RunTimeout %v", c.RunTimeout)
	}
	std, err := dram.Lookup(c.Standard)
	if err != nil {
		return err
	}
	p, err := std.Params(c.FGR)
	if err != nil {
		return err
	}
	if _, err := dram.ScaleDensity(p, c.DensityGb); err != nil {
		return err
	}
	return c.CPU.Validate()
}

// CoreResult is one core's outcome.
type CoreResult struct {
	Bench        string         // benchmark name the core ran
	IPC          float64        // instructions per CPU cycle (3.2 GHz domain)
	Instructions int64          // instructions retired
	CPUCycles    event.CPUCycle // CPU cycles to retire them
	MemReads     int64          // demand reads sent to the memory system
	MemWrites    int64          // writebacks sent to the memory system
	LLCHitReads  int64          // reads absorbed by the LLC
}

// Result is the outcome of one run.
type Result struct {
	// Cores holds one entry per simulated core, in core-ID order.
	Cores []CoreResult
	// ElapsedBus is the wall-clock length of the run in bus cycles
	// (800 MHz domain).
	ElapsedBus event.Cycle

	// Energy is the DRAM + SRAM energy breakdown in joules.
	Energy energy.Breakdown

	// SRAMHitRate, SRAMLookups, SRAMHits and SRAMServed are the ROP
	// prefetch-buffer statistics (ModeROP only; zero otherwise):
	// lookup/hit counts, hits/lookups, and demand reads served from
	// the buffer.
	SRAMHitRate float64 // buffer hits / lookups
	SRAMLookups int64   // demand reads that probed the buffer
	SRAMHits    int64   // probes that found their line
	SRAMServed  int64   // demand reads served from the buffer

	// Refreshes counts REF commands issued across all ranks.
	Refreshes       int64
	MeanReadLatency float64 // bus cycles, queue arrival to data
	// LLCMissRate is LLC misses over LLC accesses.
	LLCMissRate float64

	// Capture is the recorded timeline when Config.Capture was set.
	Capture *memctrl.Capture

	// CoreTraces holds each core's delivered request stream when
	// Config.CaptureTraces was set (one slice per core, in core-ID
	// order); replaying them via Config.Traces reproduces the run.
	CoreTraces [][]workload.Record

	// Metrics is the run's full metric-registry snapshot: every counter,
	// mean, histogram and gauge each component registered, under dotted
	// paths ("memctrl.refreshes_issued", "cpu.core0.ipc", ...). The
	// snapshot is deterministic for a fixed Config and feeds the
	// -stats-out run artifacts; docs/METRICS.md documents the namespace.
	Metrics stats.Snapshot
}

// TotalEnergy reports the run's total energy in joules.
func (r *Result) TotalEnergy() float64 { return r.Energy.Total() }

// coreKey embeds the source core into a trace line index so that core
// address spaces never alias in the LLC or in DRAM.
func coreKey(line uint64, src int) uint64 {
	return line | uint64(src)<<44
}

// memSystem adapts LLC + mapper + controller to the cpu.Memory
// interface. Victim writebacks and write-allocate fetches that hit queue
// backpressure park in pending lists and retry when space frees.
type memSystem struct {
	llc     *cache.Cache
	mapper  addr.Mapper
	ctrl    *memctrl.Controller
	readCap int
	wrCap   int

	pendingWB    []uint64 // victim keys awaiting write enqueue
	pendingFetch []uint64 // write-allocate fetches awaiting read enqueue
	cores        []*cpu.Core
}

func (m *memSystem) locOf(key uint64) addr.Loc {
	return m.mapper.Map(key, int(key>>44))
}

// flushPending retries parked writebacks and fetches after space frees.
func (m *memSystem) flushPending() {
	for len(m.pendingWB) > 0 && m.ctrl.WriteQueueLen() < m.wrCap {
		key := m.pendingWB[0]
		if !m.ctrl.EnqueueWrite(m.locOf(key), int(key>>44)) {
			break
		}
		m.pendingWB = m.pendingWB[1:]
	}
	for len(m.pendingFetch) > 0 && m.ctrl.ReadQueueLen() < m.readCap {
		key := m.pendingFetch[0]
		if !m.ctrl.EnqueueRead(m.locOf(key), int(key>>44), nil) {
			break
		}
		m.pendingFetch = m.pendingFetch[1:]
	}
}

// onSpace runs on controller queue-space notifications.
func (m *memSystem) onSpace() {
	m.flushPending()
	for _, c := range m.cores {
		c.NotifySpace()
	}
}

// handleEviction queues the writeback of a dirty victim.
func (m *memSystem) handleEviction(res cache.Result) {
	if !res.EvictedValid {
		return
	}
	key := res.EvictedLine
	if len(m.pendingWB) > 0 || !m.ctrl.EnqueueWrite(m.locOf(key), int(key>>44)) {
		m.pendingWB = append(m.pendingWB, key)
	}
}

// Read implements cpu.Memory.
func (m *memSystem) Read(line uint64, src int, done func(event.Cycle)) cpu.ReadStatus {
	if m.ctrl.ReadQueueLen() >= m.readCap {
		return cpu.ReadRejected
	}
	key := coreKey(line, src)
	res := m.llc.Access(key, false)
	if res.Hit {
		return cpu.ReadHit
	}
	if !m.ctrl.EnqueueRead(m.mapper.Map(key, src), src, done) {
		// The capacity check above makes this unreachable; treat it as
		// rejection if a policy ever changes.
		return cpu.ReadRejected
	}
	m.handleEviction(res)
	return cpu.ReadMiss
}

// Write implements cpu.Memory. A write miss allocates in the LLC and
// fetches the line from memory (write-allocate); the dirty data reaches
// DRAM later as a victim writeback.
func (m *memSystem) Write(line uint64, src int) bool {
	// Require room for the worst case (fetch + victim writeback) before
	// mutating the LLC, so rejected writes have no side effects.
	if m.ctrl.WriteQueueLen() >= m.wrCap || m.ctrl.ReadQueueLen() >= m.readCap {
		return false
	}
	key := coreKey(line, src)
	res := m.llc.Access(key, true)
	if !res.Hit {
		if !m.ctrl.EnqueueRead(m.mapper.Map(key, src), src, nil) {
			m.pendingFetch = append(m.pendingFetch, key)
		}
		m.handleEviction(res)
	}
	return true
}

// Run executes one simulation. It returns an error when the
// configuration is invalid or the run fails to converge.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation: the run aborts between events when
// ctx is cancelled (polled every watchdogInterval events) and returns
// ctx's error. Graceful campaign shutdown rides on this.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	return new(Arena).run(ctx, cfg, seams{})
}

// Arena is the storage that one goroutine reuses across a sequence of
// runs: the event queue, the LLC's way array and one workload generator
// per synthetic core. Arena.Run resets each in place (the queue keeps
// its free list and slice capacities, the LLC its way array when large
// enough, a generator its random source and history buffer) where
// RunCtx allocates them afresh; every other component is still built
// new for each run. A run's result is byte-identical to RunCtx's, and
// nothing of a run stays reachable through the arena once the next run
// has begun. The zero value is ready to use. An Arena runs one
// simulation at a time: give each goroutine its own, and drop it with
// the goroutine (runner.RunWith's per-worker state is this lifetime).
type Arena struct {
	q    event.Queue
	llc  cache.Cache
	gens []*workload.Generator
}

// Run is RunCtx on the arena's storage.
func (a *Arena) Run(ctx context.Context, cfg Config) (*Result, error) {
	return a.run(ctx, cfg, seams{})
}

// generator returns the arena's generator for core i, reset to profile
// p and seed.
func (a *Arena) generator(i int, p workload.Profile, seed int64) *workload.Generator {
	for len(a.gens) <= i {
		a.gens = append(a.gens, new(workload.Generator))
	}
	a.gens[i].Reset(p, seed)
	return a.gens[i]
}

// RunCrossChecked is RunCtx with memctrl.Config.CrossCheck set on this
// run's controller only: it ticks at the per-cycle polling cadence and
// panics where the exact wake would have slept past work. The root
// package's TestCrossCheckWake* tests drive it; no CLI flag reaches it,
// because the WL1 mix still trips the polling deviation of DESIGN.md §7
// item 9.
func RunCrossChecked(ctx context.Context, cfg Config) (*Result, error) {
	return new(Arena).run(ctx, cfg, seams{crossCheck: true})
}

// seams are the test doors into one run. Run and RunCtx pass the zero
// value, so no production run has any; RunCrossChecked and the tests
// set them per run, which keeps runs that use them safe to execute in
// parallel.
type seams struct {
	// crossCheck builds the controller with memctrl.Config.CrossCheck.
	crossCheck bool
	// stall, when set, runs with the live event queue right before the
	// event loop starts: the watchdog tests plant a livelocking event
	// chain through it.
	stall func(*event.Queue)
}

// run is the Run body, on a's storage.
func (a *Arena) run(ctx context.Context, cfg Config, sm seams) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Every run owns a private registry: components register their
	// statistics under dotted paths and the final snapshot rides back on
	// the Result. Per-run ownership (never shared across runner workers)
	// is what makes parallel experiments race-free.
	reg := stats.NewRegistry()

	// Resetting first drops the previous run's pending callbacks, and
	// with them the last references to its components.
	q := &a.q
	q.Reset()
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
	mcfg.Capture = cfg.Capture
	mcfg.ClosedPage = cfg.ClosedPage
	mcfg.ROP.SRAMLines = cfg.SRAMLines
	mcfg.ROP.Seed = cfg.Seed*7919 + 13
	if cfg.ROPTrainRefreshes > 0 {
		mcfg.ROP.TrainRefreshes = cfg.ROPTrainRefreshes
	}
	mcfg.ROP.Gate = cfg.ROPGate
	mcfg.ROP.StrictTable = cfg.ROPStrictTable
	mcfg.ROP.Predictor = cfg.ROPPredictor
	mcfg.CrossCheck = sm.crossCheck
	ctrl, err := memctrl.New(mcfg, dev, q)
	if err != nil {
		return nil, err
	}
	ctrl.RegisterMetrics(reg.Sub("memctrl"))

	// The protocol sanitizer observes every issued command and latches
	// the first violation; the event loop surfaces it at the watchdog
	// cadence so a broken schedule aborts promptly.
	var checkErr error
	if cfg.Check {
		checker := dram.NewChecker(params, geo)
		if cfg.Mode == memctrl.ModeSARP {
			// SARP confines a full per-bank refresh to one subarray, so
			// its REFsa commands lock for tRFCpb, not tRFCsa.
			checker.REFsaDur = params.RFCpb
		}
		ctrl.SetCommandObserver(func(cmd dram.Command) {
			if checkErr == nil {
				checkErr = checker.Check(cmd)
			}
		})
	}

	var mapper addr.Mapper
	if cfg.RankPartition {
		mapper = addr.NewRankPartitioned(geo)
	} else {
		mapper = addr.NewInterleaved(geo)
	}

	llc := &a.llc
	if err := llc.Reset(cache.DefaultConfig(cfg.LLCBytes)); err != nil {
		return nil, err
	}
	ms := &memSystem{
		llc:     llc,
		mapper:  mapper,
		ctrl:    ctrl,
		readCap: mcfg.ReadQueueCap,
		wrCap:   mcfg.WriteQueueCap,
	}
	ctrl.SetSpaceNotify(ms.onSpace)
	ms.llc.RegisterMetrics(reg.Sub("llc"))

	remaining := len(cfg.Benches)
	cores := make([]*cpu.Core, len(cfg.Benches))
	recorders := make([]*trace.Recorder, len(cfg.Benches))
	for i, bench := range cfg.Benches {
		var stream workload.Stream
		switch {
		case cfg.Traces != nil:
			stream = cfg.Traces[i]
		case trace.IsSource(bench):
			recs, err := trace.LoadFile(trace.SourcePath(bench))
			if err != nil {
				return nil, err
			}
			rs := trace.NewReplayStream(recs)
			// Replay metrics only exist for trace-driven cores, so
			// synthetic runs keep their metric namespace (and golden
			// artifacts) unchanged.
			rs.RegisterMetrics(reg.Sub(fmt.Sprintf("trace.core%d", i)))
			stream = rs
		default:
			prof, err := workload.Get(bench)
			if err != nil {
				return nil, err
			}
			stream = a.generator(i, prof, cfg.Seed*1_000_003+int64(i)*97+int64(len(bench)))
		}
		if cfg.CaptureTraces {
			recorders[i] = trace.NewRecorder(stream)
			stream = recorders[i]
		}
		cores[i] = cpu.New(cfg.CPU, i, stream, ms, q, cfg.Instructions)
		cores[i].RegisterMetrics(reg.Sub(fmt.Sprintf("cpu.core%d", i)))
	}
	ms.cores = cores
	for _, c := range cores {
		c := c
		c.Start(func() { remaining-- })
	}

	if sm.stall != nil {
		sm.stall(q)
	}

	// Run until every core finishes. The event bound is generous (some
	// hundreds of events per instruction would be pathological); a run
	// that exceeds it is livelocked and reports an error instead of
	// spinning forever. The watchdog layers finer detectors on top:
	// cancellation, the wall-clock deadline, and retire-progress
	// tracking, polled every watchdogInterval events.
	wd := newWatchdog(cfg, cores, ctrl, dev, q)
	maxEvents := 1000 * cfg.Instructions * int64(len(cfg.Benches)+1)
	var dispatched int64
	for remaining > 0 {
		if !q.Step() {
			return nil, fmt.Errorf("sim: event queue drained with %d cores unfinished", remaining)
		}
		dispatched++
		if dispatched > maxEvents {
			return nil, fmt.Errorf("sim: exceeded %d events with %d cores unfinished (livelock?)",
				maxEvents, remaining)
		}
		if dispatched%watchdogInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if checkErr != nil {
				return nil, fmt.Errorf("sim: protocol violation: %w", checkErr)
			}
			if err := wd.check(dispatched, remaining); err != nil {
				return nil, err
			}
		}
	}

	// Pure-compute phases advance core time without any event-queue
	// activity, so the wall clock is the later of the last event and the
	// slowest core's own clock — and the controller must keep running
	// (refreshing) through that tail so refresh counts and energy cover
	// the whole run.
	elapsed := q.Now()
	for _, c := range cores {
		if b := event.ToBus(c.Cycles()); b > elapsed {
			elapsed = b
		}
	}
	q.RunUntil(elapsed)
	res := &Result{ElapsedBus: elapsed, Capture: ctrl.CaptureLog()}
	if cfg.CaptureTraces {
		res.CoreTraces = make([][]workload.Record, len(recorders))
		for i, rec := range recorders {
			res.CoreTraces[i] = rec.Records()
		}
	}
	for i, c := range cores {
		res.Cores = append(res.Cores, CoreResult{
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
	if total := ms.llc.Hits.Value() + ms.llc.Misses.Value(); total > 0 {
		res.LLCMissRate = float64(ms.llc.Misses.Value()) / float64(total)
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
	res.Energy, err = energy.Compute(energy.DDR4Power(), params, elapsed, energy.Counts{
		ACT:             dev.NumACT.Value(),
		RD:              dev.NumRD.Value(),
		WR:              dev.NumWR.Value(),
		REF:             dev.NumREF.Value(),
		RefLockedCycles: dev.RefLockedCycles.Value(),
		Ranks:           cfg.Ranks,
	}, sramCounts)
	if err != nil {
		return nil, err
	}
	// The refresh tail after the last core finished still issued
	// commands; surface any sanitizer violation latched there.
	if checkErr != nil {
		return nil, fmt.Errorf("sim: protocol violation: %w", checkErr)
	}

	// Run-level derived metrics join the registry last, then the whole
	// namespace is frozen into the result.
	res.Energy.RegisterMetrics(reg.Sub("energy"))
	simReg := reg.Sub("sim")
	simReg.Gauge("elapsed_bus_cycles", func() float64 { return float64(res.ElapsedBus) })
	simReg.Gauge("cores", func() float64 { return float64(len(res.Cores)) })
	simReg.Gauge("llc_miss_rate", func() float64 { return res.LLCMissRate })
	simReg.Gauge("mean_read_latency", func() float64 { return res.MeanReadLatency })
	res.Metrics = reg.Snapshot()
	return res, nil
}

// WeightedSpeedup computes Σ IPC_shared/IPC_alone (paper Eq. 4) given
// the shared-run result and per-benchmark alone IPCs keyed by core
// index.
func WeightedSpeedup(shared *Result, alone []float64) float64 {
	if len(alone) != len(shared.Cores) {
		panic("sim: alone IPC count mismatch")
	}
	ws := 0.0
	for i, c := range shared.Cores {
		if alone[i] > 0 {
			ws += c.IPC / alone[i]
		}
	}
	return ws
}
