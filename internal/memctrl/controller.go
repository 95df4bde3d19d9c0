// Package memctrl implements the simulated memory controller: read and
// write transaction queues with FR-FCFS scheduling and batched write
// drain, the per-rank refresh state machine (auto-refresh baseline,
// idealized no-refresh, and the paper's ROP mode with pre-refresh drain
// and prefetch), and the SRAM service path that answers reads while a
// rank is frozen.
package memctrl

import (
	"fmt"

	"ropsim/internal/addr"
	"ropsim/internal/core"
	"ropsim/internal/dram"
	"ropsim/internal/event"
	"ropsim/internal/stats"
)

// Config parameterizes the controller. Table III: 64-entry read and
// write queues, FR-FCFS, writes scheduled in batches.
type Config struct {
	// Mode selects the refresh policy under simulation (baseline,
	// no-refresh, ROP, ...).
	Mode Mode

	ReadQueueCap  int // read queue capacity in requests (Table III: 64)
	WriteQueueCap int // write queue capacity in requests (Table III: 64)
	// WriteHigh and WriteLow are the write drain watermarks: draining
	// starts at WriteHigh pending writes (or when reads are idle) and
	// stops at WriteLow.
	WriteHigh, WriteLow int

	// MaxRefreshDelay bounds how long the ROP drain/prefetch phase may
	// postpone a due refresh, in tREFI units (JEDEC allows up to 8).
	MaxRefreshDelay float64

	// SRAMLatency is the bus-cycle latency of an SRAM buffer hit
	// (Table III: 3 CPU cycles ≈ 1 bus cycle; rounded up to 1).
	SRAMLatency event.Cycle

	// ROP configures the prefetch engine (ModeROP only).
	ROP core.Config

	// ClosedPage selects the closed-page row policy: banks precharge as
	// soon as no queued request wants their open row (the paper's
	// configuration is open-page; this is an ablation knob).
	ClosedPage bool

	// Capture enables request/refresh trace capture for the offline
	// refresh-blocking analysis (Figs 2-4, Table I).
	Capture bool

	// CrossCheck validates the exact wake discipline: every tick re-arms
	// at the original per-cycle polling cadence and panics if the exact
	// wake computed after the previous tick would have slept past a cycle
	// where this tick issued a command or advanced controller state (a
	// drain flag flip that syncDrain would replay does not count, but
	// must match the replay), if a queue plan reused without a sweep
	// differs from a fresh sweep, if a prefetch fill issues while a
	// demand read of its line is queued, or if the request pool's
	// conservation identity (poolBalanced) fails. sim.RunCrossChecked
	// sets it on one run, for the TestCrossCheckWake* tests; no CLI flag
	// or sim.Config field sets it.
	CrossCheck bool
}

// DefaultConfig returns the paper's controller configuration for the
// given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:            mode,
		ReadQueueCap:    64,
		WriteQueueCap:   64,
		WriteHigh:       48,
		WriteLow:        16,
		MaxRefreshDelay: 0.5,
		SRAMLatency:     1,
		ROP:             core.DefaultConfig(),
	}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0 {
		return fmt.Errorf("memctrl: non-positive queue capacity")
	}
	if c.WriteLow < 0 || c.WriteHigh <= c.WriteLow || c.WriteHigh > c.WriteQueueCap {
		return fmt.Errorf("memctrl: bad write watermarks low=%d high=%d cap=%d",
			c.WriteLow, c.WriteHigh, c.WriteQueueCap)
	}
	if c.MaxRefreshDelay < 0 || c.MaxRefreshDelay > 8 {
		return fmt.Errorf("memctrl: MaxRefreshDelay %g outside [0,8]", c.MaxRefreshDelay)
	}
	if c.SRAMLatency < 0 {
		return fmt.Errorf("memctrl: negative SRAM latency")
	}
	pol, ok := c.Mode.policy()
	if !ok {
		return fmt.Errorf("memctrl: unknown refresh mode %d", int(c.Mode))
	}
	if pol.rop {
		return c.ROP.Validate()
	}
	return nil
}

// request is one queued transaction. Requests are pooled per
// controller (see newRequest): a request leaves the pool when it is
// queued or parked as a pending SRAM buffer insert, and returns to it
// when it leaves the controller.
type request struct {
	loc      addr.Loc
	arrive   event.Cycle
	src      int
	seq      int64 // controller-wide age stamp; FR-FCFS "oldest" = lowest seq
	prefetch bool  // ROP fill, not a demand access
	done     func(event.Cycle)
	insertFn func(event.Cycle) // insertFill bound to this request, set once
}

// Controller drives one DRAM channel.
type Controller struct {
	cfg Config
	dev *dram.Device
	q   *event.Queue
	geo addr.Geometry

	readQ    []*request
	writeQ   []*request
	fillQ    []*request // ROP prefetch fills for the rank about to refresh
	draining bool       // write batch in progress

	// readIdx/writeIdx/fillIdx are per-(rank,bank) views of the three
	// queues (see bankIndex); reqSeq stamps requests with their age.
	readIdx, writeIdx, fillIdx bankIndex
	reqSeq                     int64
	// devVer counts issued commands and refresh phase steps: the device
	// timing and refresh blocking state the queue plans were swept under.
	devVer uint64
	// drainAt is the cycle of the last wake computation; drainNext holds
	// the drain flag after an even and an odd number of polled updates
	// since, and drainMoves is set while those differ from the flag
	// (see scheduleWake and syncDrain).
	drainAt    event.Cycle
	drainNext  [2]bool
	drainMoves bool

	refresh []rankRefresh
	rop     *core.Engine

	wakeAt      event.Cycle       // cycle of the currently armed tick (-1 when none)
	wakeChained bool              // the armed tick is a chained wake (see armAfterTick)
	wakeArmedAt event.Cycle       // cycle at which the armed tick was scheduled
	wakeChain   event.ChainHandle // retarget handle for the armed chained wake
	lastExact   event.Cycle       // CrossCheck: last computed exact wake
	tickFn      func(event.Cycle) // tick as a stored closure, reused by every arm
	spaceFn     func()            // back-pressure notification to the cores

	// free is the request pool's free list. reqMade counts the request
	// objects ever allocated and insertsPending those parked as pending
	// buffer inserts, so reqMade = len(free) + queued + insertsPending
	// (checked by poolBalanced).
	free           []*request
	reqMade        int
	insertsPending int

	capture *Capture
	cmdObs  func(dram.Command) // optional command observer (protocol sanitizer)
	// tickObs, when set, sees every tick event: fired is false for a
	// superseded wake that skips (the wake tests' view of the loop).
	tickObs func(now event.Cycle, fired bool)

	// sessionInsertedMark is the SRAM insert counter at the start of the
	// current fill session (consumption feedback, see startFills).
	sessionInsertedMark int64

	// ReadsServed and WritesServed count completed demand requests.
	ReadsServed, WritesServed stats.Counter
	// SRAMServed counts demand reads answered from the ROP prefetch
	// buffer instead of DRAM (paper §IV-A "revived" accesses).
	SRAMServed stats.Counter
	// PrefetchFillsIssued counts prefetch reads issued into the buffer
	// during refresh-shadow fill sessions.
	PrefetchFillsIssued stats.Counter
	ReadLatency         stats.Mean       // bus cycles, arrival to data
	ReadLatencyHist     *stats.Histogram // bus cycles, arrival to data
	// QueueFullEvents counts enqueue attempts rejected by a full
	// read/write queue (back-pressure to the cores).
	QueueFullEvents stats.Counter
	// RefreshesIssued counts REF commands across all ranks.
	RefreshesIssued        stats.Counter
	RefreshPostponedCycles stats.Mean // REF issue minus due time, bus cycles
	// FillsDropped counts prefetch fills abandoned because the fill
	// phase ended before their data returned.
	FillsDropped    stats.Counter
	FillPhaseCycles stats.Mean // fill-session length in bus cycles
	// PrefetchThrottled counts fill sessions cut short by the demand
	// queue pressure throttle.
	PrefetchThrottled stats.Counter
	// RefreshPullIns counts refreshes issued ahead of their slot's due
	// time (out-of-order scheduling's JEDEC pull-in window).
	RefreshPullIns stats.Counter
	// DrainPiggybacks counts refreshes issued during a write-drain batch
	// under DARP (write-refresh parallelization, Chang et al. HPCA'14).
	DrainPiggybacks stats.Counter
	// SARPParallelServes counts demand ACT/RD/WR commands issued to a
	// bank while one of its subarrays was refreshing — the accesses SARP
	// parallelizes with refresh.
	SARPParallelServes stats.Counter

	pol policy // cfg.Mode resolved through presets
	// cadence is the nominal interval between two refresh commands of a
	// rank under the policy's granularity; allBanks lists the bank
	// indices 0..Banks-1 (a rank-granularity refresh target).
	cadence  event.Cycle
	allBanks []int
}

// sarpDieAreaPct is the DRAM die area overhead Chang et al. HPCA'14
// report for SARP's per-subarray peripherals (§5.4), in percent;
// surfaced as a gauge so the cost rides along with the benefit.
const sarpDieAreaPct = 0.71

// readLatencyBounds are the ReadLatencyHist bucket bounds in bus
// cycles: the low end captures SRAM-buffer hits (~1 cycle) and row
// hits, the high end refresh-blocked tails (tRFC = 280 cycles at
// DDR4-1600 1x).
var readLatencyBounds = []int64{2, 8, 16, 32, 64, 128, 256, 512, 1024}

// RegisterMetrics registers the controller's service, latency and
// refresh counters into r (typically a "memctrl"-scoped sub-registry).
// Latencies and cycle means are in bus cycles (800 MHz domain). When
// the ROP engine is present its metrics land under "rop." within the
// same scope.
func (c *Controller) RegisterMetrics(r *stats.Registry) {
	r.Register("reads_served", &c.ReadsServed)
	r.Register("writes_served", &c.WritesServed)
	r.Register("sram_served", &c.SRAMServed)
	r.Register("prefetch_fills_issued", &c.PrefetchFillsIssued)
	r.Register("read_latency", &c.ReadLatency)
	r.Register("read_latency_hist", c.ReadLatencyHist)
	r.Register("queue_full_events", &c.QueueFullEvents)
	r.Register("refreshes_issued", &c.RefreshesIssued)
	r.Register("refresh_postponed_cycles", &c.RefreshPostponedCycles)
	r.Register("fills_dropped", &c.FillsDropped)
	r.Register("fill_phase_cycles", &c.FillPhaseCycles)
	r.Register("prefetch_throttled", &c.PrefetchThrottled)
	r.Register("refresh_pull_ins", &c.RefreshPullIns)
	r.Register("drain_piggybacks", &c.DrainPiggybacks)
	r.Register("sarp_parallel_cmds", &c.SARPParallelServes)
	if c.pol.gran == granSlotSubarray {
		r.Gauge("sarp_die_area_overhead_pct", func() float64 { return sarpDieAreaPct })
	}
	if c.rop != nil {
		c.rop.RegisterMetrics(r.Sub("rop"))
	}
}

// observeRead records one completed demand read's queue-arrival-to-data
// latency in bus cycles, in both the running mean and the histogram.
func (c *Controller) observeRead(busCycles float64) {
	c.ReadLatency.Observe(busCycles)
	c.ReadLatencyHist.Observe(int64(busCycles))
}

// New builds a controller for the given device, driven by queue q. It
// rejects an invalid configuration with the validation error (a bad
// CLI flag surfaces as a clean one-line error, not a stack trace).
func New(cfg Config, dev *dram.Device, q *event.Queue) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := dev.Geometry()
	if geo.Banks > maxIndexBanks {
		return nil, fmt.Errorf("memctrl: %d banks per rank, at most %d supported", geo.Banks, maxIndexBanks)
	}
	pol, _ := cfg.Mode.policy()
	p := dev.Params()
	if p.REFI > 0 {
		switch pol.gran {
		case granSlot:
			if p.RFCpb <= 0 {
				return nil, fmt.Errorf("memctrl: bank-refresh mode requires RFCpb timing")
			}
		case granSubarray:
			if p.RFCsa <= 0 || p.Subarrays <= 0 {
				return nil, fmt.Errorf("memctrl: subarray-refresh mode requires RFCsa/Subarrays timing")
			}
		case granSlotSubarray:
			if p.RFCpb <= 0 || p.Subarrays <= 0 {
				return nil, fmt.Errorf("memctrl: SARP requires RFCpb/Subarrays timing")
			}
		}
	}
	c := &Controller{
		cfg:             cfg,
		pol:             pol,
		dev:             dev,
		q:               q,
		geo:             geo,
		wakeAt:          -1,
		devVer:          1, // no zero-valued queue plan is ever current
		ReadLatencyHist: stats.NewHistogram(readLatencyBounds...),
	}
	c.tickFn = c.tick
	c.readIdx.init(geo, false, true)
	c.writeIdx.init(geo, true, true)
	c.fillIdx.init(geo, false, false)
	c.allBanks = make([]int, geo.Banks)
	for b := range c.allBanks {
		c.allBanks[b] = b
	}
	if pol.gran != granNone && p.REFI > 0 {
		c.refresh = make([]rankRefresh, geo.Ranks)
		switch pol.gran {
		case granRank:
			c.cadence = p.REFI
		case granSlot, granSlotSubarray:
			// One command per slot per tREFI: slots = banks, except under
			// same-bank refresh (DDR5) where one command covers a whole
			// bank set.
			c.cadence = p.REFI / event.Cycle(dev.RefreshSlots())
		case granSubarray:
			c.cadence = max(p.REFI/event.Cycle(geo.Banks*p.Subarrays), 1)
		}
		for r := range c.refresh {
			// Stagger rank refreshes across the cadence interval so that
			// at most one rank is frozen at a time (and the shared SRAM
			// buffer is never contended).
			rr := &c.refresh[r]
			rr.due = c.cadence * event.Cycle(r+1) / event.Cycle(geo.Ranks)
			if pol.seq == seqOutOfOrder {
				// Out-of-order scheduling tracks a due time per slot: the
				// in-order schedule would visit slot s one cadence after
				// slot s-1, each slot recurring every tREFI.
				rr.slotDue = make([]event.Cycle, dev.RefreshSlots())
				for s := range rr.slotDue {
					rr.slotDue[s] = rr.due + c.cadence*event.Cycle(s)
				}
			}
			if pol.gran == granSlotSubarray {
				// A rotating subarray counter per slot: a shared counter
				// would alias with the slot rotation (same slot count and
				// subarray count ⇒ every bank refreshing one subarray
				// forever), so each slot rotates independently.
				rr.slotSA = make([]int, dev.RefreshSlots())
			}
		}
		if pol.rop {
			// The engine's observational window and freeze length follow
			// the granularity: tREFI and tRFC for a rank, the per-slot
			// schedule and tRFCpb for a bank set.
			freeze := p.RFC
			if pol.gran != granRank {
				freeze = p.RFCpb
			}
			var err error
			if c.rop, err = core.NewEngine(cfg.ROP, geo, c.cadence, freeze); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Capture {
		c.capture = &Capture{}
	}
	// Prime the tick loop so refreshes happen even before any request
	// arrives (an idle DRAM still refreshes).
	if next, ok := c.nextRefreshDue(); ok {
		c.ensureWake(next)
	}
	return c, nil
}

// MustNew is New for statically known-good configurations (tests); it
// panics on error.
func MustNew(cfg Config, dev *dram.Device, q *event.Queue) *Controller {
	c, err := New(cfg, dev, q)
	if err != nil {
		panic(err)
	}
	return c
}

// ROP exposes the prefetch engine (nil unless the mode runs ROP).
func (c *Controller) ROP() *core.Engine { return c.rop }

// Device exposes the DRAM device (for energy accounting).
func (c *Controller) Device() *dram.Device { return c.dev }

// CaptureLog returns the request/refresh capture, or nil when disabled.
func (c *Controller) CaptureLog() *Capture { return c.capture }

// SetCommandObserver registers fn to be called with every DRAM command
// the controller issues (ACT/PRE/RD/WR/REF), in issue order. It is the
// hook the -check protocol sanitizer attaches to; nil disables it.
func (c *Controller) SetCommandObserver(fn func(dram.Command)) { c.cmdObs = fn }

// emit forwards an issued command to the command observer (when
// registered). Every command-issue site routes through here so the
// sanitizer sees the complete stream, and so the device version the
// queue plans depend on moves with every change of device timing state.
func (c *Controller) emit(cmd dram.Command) {
	c.devVer++
	if c.pol.gran == granSlotSubarray {
		switch cmd.Kind {
		case dram.CmdACT, dram.CmdRD, dram.CmdWR:
			if c.dev.AnySubarrayRefreshing(cmd.Rank, cmd.Bank, cmd.At) {
				c.SARPParallelServes.Inc()
			}
		}
	}
	if c.cmdObs != nil {
		c.cmdObs(cmd)
	}
}

// SetSpaceNotify registers fn to run when queue space frees up after a
// rejected enqueue.
func (c *Controller) SetSpaceNotify(fn func()) { c.spaceFn = fn }

// ReadQueueLen reports current read queue occupancy.
func (c *Controller) ReadQueueLen() int { return len(c.readQ) }

// WriteQueueLen reports current write queue occupancy.
func (c *Controller) WriteQueueLen() int { return len(c.writeQ) }

// ensureWake arms a tick at cycle at unless one is already armed at or
// before it. Arming an earlier wake does not cancel the later event
// already in the queue: that event keeps its original queue position
// (its order relative to same-cycle enqueues is observable in the
// command stream) and is skipped or re-validated against wakeAt when
// it fires — see tick.
//
// When the armed wake is a chained sleep from a previous cycle (the
// controller computed "nothing to do until W" and went to sleep),
// arming an earlier cycle pulls that chained wake forward instead of
// scheduling a new event: the polling chain this emulates would have
// had a tick queued at the current cycle already, at the chain's
// per-cycle queue position, and ensureWake would have been a no-op
// against it. If the chained wake was armed during the current cycle
// (the chain's tick for this cycle already fired), a fresh plain tick
// is scheduled, exactly as the polling loop's ensureWake would have.
// A sleep over which the drain flag moves (drainMoves) whose chain
// already passed the current cycle is handled the same way. Other
// sleeps still pull the chain forward in that case, one cycle position
// off the polling loop (DESIGN.md §7).
func (c *Controller) ensureWake(at event.Cycle) {
	now := c.q.Now()
	if at < now {
		at = now
	}
	if c.wakeAt >= 0 && c.wakeAt <= at {
		return
	}
	if c.wakeChained && c.wakeAt > at && c.wakeArmedAt < at {
		if at == now && c.drainMoves && c.q.ChainPassed(c.wakeChain) {
			// The sleeping chain already ticked this cycle, so the polling
			// loop updated the drain flag and re-armed for now+1 before
			// this call: replay that update, keep the chain's position for
			// now+1, and tick again at now below.
			c.syncDrain(now + 1)
			c.q.RetargetChained(c.wakeChain, now+1)
		} else if c.q.RetargetChained(c.wakeChain, at) {
			c.wakeAt = at
			return
		}
	}
	c.wakeChained = false
	c.wakeAt = at
	c.q.Schedule(at, c.tickFn)
}

// EnqueueRead submits a demand read. done runs when the data is
// available. It reports false when the read queue is full (the paper's
// command-queue-seizure backpressure).
func (c *Controller) EnqueueRead(loc addr.Loc, src int, done func(event.Cycle)) bool {
	now := c.q.Now()
	if len(c.readQ) >= c.cfg.ReadQueueCap {
		c.QueueFullEvents.Inc()
		return false
	}
	if c.capture != nil {
		c.capture.Request(now, loc.Rank, true)
	}
	if c.rop != nil {
		c.rop.OnRequest(loc, true, now)
		// A read arriving while its rank is frozen — or while the buffer
		// already holds the line ahead of the freeze — is served from
		// the SRAM buffer (the paper's central mechanism).
		frozen := c.dev.Refreshing(loc.Rank, now)
		if c.pol.gran != granRank {
			frozen = c.dev.BankRefreshing(loc.Rank, loc.Bank, now)
		}
		if c.rop.ProbeRead(loc, now, frozen) {
			c.SRAMServed.Inc()
			c.finishRead(now, now+c.cfg.SRAMLatency, done)
			return true
		}
	}
	c.pushRequest(&c.readQ, c.newRequest(loc, now, src, false, done))
	if c.cfg.CrossCheck {
		c.lastExact = now
	}
	c.ensureWake(now)
	return true
}

// EnqueueWrite submits a posted write. It reports false when the write
// queue is full.
func (c *Controller) EnqueueWrite(loc addr.Loc, src int) bool {
	now := c.q.Now()
	if len(c.writeQ) >= c.cfg.WriteQueueCap {
		c.QueueFullEvents.Inc()
		return false
	}
	if c.capture != nil {
		c.capture.Request(now, loc.Rank, false)
	}
	if c.rop != nil {
		c.rop.OnRequest(loc, false, now)
		c.rop.OnWrite(loc)
	}
	c.pushRequest(&c.writeQ, c.newRequest(loc, now, src, false, nil))
	if c.cfg.CrossCheck {
		c.lastExact = now
	}
	c.ensureWake(now)
	return true
}

// pushRequest stamps req's age, appends it to the queue, and mirrors
// it into the queue's bank index. Every enqueue site routes through
// here so queue and index cannot drift. A queue plan that was current
// before the push stays current: req is folded into it.
func (c *Controller) pushRequest(queue *[]*request, req *request) {
	c.reqSeq++
	req.seq = c.reqSeq
	*queue = append(*queue, req)
	ix := c.indexFor(queue)
	fold := ix.plan.ver == ix.ver && ix.plan.devVer == c.devVer
	ix.add(req)
	if fold {
		c.foldPlan(ix, req)
	}
}

// newRequest takes a request from the free list, allocating one (and
// binding its buffer-insert callback) only when the list is empty.
func (c *Controller) newRequest(loc addr.Loc, arrive event.Cycle, src int, prefetch bool, done func(event.Cycle)) *request {
	var req *request
	if n := len(c.free); n > 0 {
		req = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		req = &request{}
		req.insertFn = func(event.Cycle) { c.insertFill(req) }
		c.reqMade++
	}
	req.loc, req.arrive, req.src, req.prefetch, req.done = loc, arrive, src, prefetch, done
	return req
}

// release returns a request that left the controller to the free list.
func (c *Controller) release(req *request) {
	req.done = nil
	c.free = append(c.free, req)
}

// poolBalanced reports whether every request object ever allocated is
// on the free list, in a queue, or parked as a pending buffer insert.
func (c *Controller) poolBalanced() bool {
	held := len(c.free) + len(c.readQ) + len(c.writeQ) + len(c.fillQ) + c.insertsPending
	return held == c.reqMade
}

// indexFor maps a queue to its bank index.
func (c *Controller) indexFor(queue *[]*request) *bankIndex {
	switch queue {
	case &c.readQ:
		return &c.readIdx
	case &c.writeQ:
		return &c.writeIdx
	default:
		return &c.fillIdx
	}
}

// Idle reports whether the controller has no pending work at all.
func (c *Controller) Idle() bool {
	if len(c.readQ) > 0 || len(c.writeQ) > 0 || len(c.fillQ) > 0 {
		return false
	}
	for r := range c.refresh {
		if c.refresh[r].phase != refIdle {
			return false
		}
	}
	return true
}

// tick is one scheduling step: at most one command on the channel per
// bus cycle, refresh actions first, then FR-FCFS. Unlike the original
// per-cycle polling loop (which re-armed now+1 whenever any work was
// pending), ticks only fire at cycles where the controller can act;
// armNextWake computes the next such cycle exactly (see wake.go), so
// frozen and timing-stalled cycles are slept through.
func (c *Controller) tick(now event.Cycle) {
	if now != c.wakeAt {
		// Superseded wake: a later ensureWake armed a different cycle
		// after this event was queued (or another tick already claimed
		// this cycle). Skip explicitly — no work may run off a
		// superseded wake; TestNoSupersededWakeDoesWork enforces this.
		if c.tickObs != nil {
			c.tickObs(now, false)
		}
		return
	}
	c.wakeAt = -1
	c.wakeChained = false
	if c.tickObs != nil {
		c.tickObs(now, true)
	}

	moves := c.drainMoves
	c.syncDrain(now)
	var preDrain bool
	var prePhases [16]refPhase
	if c.cfg.CrossCheck {
		preDrain = c.draining
		for r := range c.refresh {
			prePhases[r] = c.refresh[r].phase
		}
	}

	issued := c.refreshStep(now)
	if !issued {
		issued = c.scheduleStep(now)
	}
	if !issued && c.cfg.ClosedPage {
		issued = c.closeIdleRows(now)
	}
	if c.cfg.CrossCheck {
		flipped := preDrain != c.draining
		if moves && c.lastExact > now {
			// The exact wake would have slept through this tick; its drain
			// flag update is work only if syncDrain would not replay it.
			if want := c.drainAfter(now); c.draining != want {
				panic(fmt.Sprintf("drain flag replay diverged: now=%d armed=%d draining %v, replay %v",
					now, c.drainAt, c.draining, want))
			}
			flipped = false
		}
		changed := issued || flipped
		for r := range c.refresh {
			changed = changed || prePhases[r] != c.refresh[r].phase
		}
		if changed && c.lastExact > now {
			panic(fmt.Sprintf("exact wake missed work: now=%d exact=%d issued=%v mode=%v draining %v->%v",
				now, c.lastExact, issued, c.cfg.Mode, preDrain, c.draining))
		}
		c.lastExact = c.nextWake(now)
		if issued && c.Idle() {
			c.lastExact = now + 1 // armAfterTick runs the final no-op tick
		}
		if !c.poolBalanced() {
			panic(fmt.Sprintf("request pool leak: %d allocated, %d free, %d+%d+%d queued, %d inserting",
				c.reqMade, len(c.free), len(c.readQ), len(c.writeQ), len(c.fillQ), c.insertsPending))
		}
		if issued || !c.Idle() {
			c.ensureWake(now + 1)
			return
		}
		if c.cfg.ClosedPage {
			if retry := c.closePageWake(now); retry < cycleNever {
				c.ensureWake(retry)
				return
			}
		}
		if next, ok := c.nextRefreshDue(); ok {
			c.ensureWake(next)
		}
		return
	}
	c.armAfterTick(now, issued)
}

// nextRefreshDue reports the earliest cycle at which any rank's
// refresh machine wants attention: the earliest due time, except under
// out-of-order scheduling where it is the earliest issuable pick or
// slot-schedule boundary (oooWake).
func (c *Controller) nextRefreshDue() (event.Cycle, bool) {
	ooo := c.pol.seq == seqOutOfOrder
	now := c.q.Now()
	var best event.Cycle
	found := false
	for r := range c.refresh {
		due := c.refresh[r].due
		if ooo && c.refresh[r].phase == refIdle {
			due = c.oooWake(r, now)
		}
		if !found || due < best {
			best = due
			found = true
		}
	}
	return best, found
}

// completeRead finishes a demand read or prefetch fill at dataAt.
func (c *Controller) completeRead(req *request, dataAt event.Cycle) {
	if req.prefetch {
		// A fill issues only when no demand read can, so no queued
		// read wants this line: fills exist only while their rank is
		// filling, when no refresh bars its banks, and a read of the
		// line would be a row hit exactly as ready as the fill.
		if c.cfg.CrossCheck {
			for _, dr := range c.readQ {
				if dr.loc == req.loc {
					panic(fmt.Sprintf("fill of %+v issued at %d with a same-line demand read queued", req.loc, c.q.Now()))
				}
			}
		}
		c.PrefetchFillsIssued.Inc()
		c.stageFill(req.loc, dataAt)
		return
	}
	c.finishRead(req.arrive, dataAt, req.done)
	// Symmetric merge: a pending prefetch fill for the same line rides
	// this demand burst into the buffer.
	for _, f := range c.fillQ {
		if f.loc == req.loc {
			c.removeReq(&c.fillQ, f)
			c.stageFill(req.loc, dataAt)
			break
		}
	}
}

// finishRead completes a demand read that arrived at arrive and whose
// data is available at dataAt: it counts and times the read and
// schedules the caller's done directly.
func (c *Controller) finishRead(arrive, dataAt event.Cycle, done func(event.Cycle)) {
	c.ReadsServed.Inc()
	c.observeRead(float64(dataAt - arrive))
	if done != nil {
		c.q.Schedule(dataAt, done)
	}
}

// stageFill schedules the SRAM buffer insert of a filled line for when
// its data arrives at dataAt, provided the line's rank owns the buffer.
// The pending insert is a pooled request parked outside the queues.
func (c *Controller) stageFill(loc addr.Loc, dataAt event.Cycle) {
	if c.rop == nil || c.rop.Buffer().Owner() != loc.Rank {
		return
	}
	ins := c.newRequest(loc, dataAt, 0, true, nil)
	c.insertsPending++
	c.q.Schedule(dataAt, ins.insertFn)
}

// insertFill lands a staged fill in the buffer and returns its request
// to the free list. Ownership is re-checked at fill time: the refresh
// may have completed and released the buffer.
func (c *Controller) insertFill(ins *request) {
	if buf := c.rop.Buffer(); buf.Owner() == ins.loc.Rank {
		buf.Insert(c.rop.LineKey(ins.loc))
	}
	c.insertsPending--
	c.release(ins)
}

// scheduleStep picks and issues at most one demand/fill command using
// FR-FCFS: row hits first (oldest first), then the oldest request's
// bank-preparation command. It reports whether a command was issued.
func (c *Controller) scheduleStep(now event.Cycle) bool {
	// Choose the candidate set: prefetch fills and demand reads compete
	// first; writes only during a drain batch or when reads are absent.
	c.draining = c.nextDrainState(c.draining)

	// Demand reads come first; prefetch fills ride in leftover slots
	// (paper §IV-D: drained requests are issued, prefetches
	// opportunistically alongside). An active fill window takes priority
	// over write drain batches: fills have a hard deadline before the
	// refresh freezes the rank, writes are posted and can wait.
	if !c.draining || len(c.fillQ) > 0 {
		if c.issueFrom(&c.readQ, now) {
			return true
		}
		if c.issueFrom(&c.fillQ, now) {
			return true
		}
		if c.draining {
			return c.issueFrom(&c.writeQ, now)
		}
		return false
	}
	if c.issueFrom(&c.writeQ, now) {
		return true
	}
	// Drain mode with nothing issuable: let reads through anyway so a
	// blocked write bank does not stall ready reads.
	return c.issueFrom(&c.readQ, now)
}

// issueFrom issues the command FR-FCFS picks from one queue at now, if
// any: the oldest request whose column command (RD, or WR for the
// write queue) is legal now, else the oldest whose bank-preparation
// command (PRE for a conflicting open row, ACT for a precharged bank)
// is. A row hit whose column command is not yet legal waits rather than
// churns, so it never prepares. The pick comes from the queue's plan
// (see plan), which the previous tick's wake computation usually left
// valid, so most issues cost no sweep. It reports whether a command was
// issued.
func (c *Controller) issueFrom(queue *[]*request, now event.Cycle) bool {
	if len(*queue) == 0 {
		return false
	}
	p := c.plan(c.indexFor(queue), now)
	if p.at != now {
		return false
	}
	if p.hit {
		c.issueColumn(queue, p.req, now)
	} else {
		c.issuePrep(p.req, now)
	}
	return true
}

// issueColumn issues req's RD or WR at now and retires the request.
func (c *Controller) issueColumn(queue *[]*request, req *request, now event.Cycle) {
	r, b := req.loc.Rank, req.loc.Bank
	if queue == &c.writeQ {
		c.dev.IssueWR(now, r, b)
		c.emit(dram.Command{Kind: dram.CmdWR, At: now, Rank: r, Bank: b, Col: req.loc.Col})
		c.WritesServed.Inc()
		c.removeReq(queue, req)
		return
	}
	dataAt := c.dev.IssueRD(now, r, b)
	c.emit(dram.Command{Kind: dram.CmdRD, At: now, Rank: r, Bank: b, Col: req.loc.Col})
	c.completeRead(req, dataAt)
	c.removeReq(queue, req)
}

// issuePrep issues the bank-preparation command req needs at now: PRE
// for a conflicting open row, else ACT of req's row.
func (c *Controller) issuePrep(req *request, now event.Cycle) {
	r, b := req.loc.Rank, req.loc.Bank
	if c.dev.OpenRow(r, b) >= 0 {
		c.dev.IssuePRE(now, r, b)
		c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: r, Bank: b})
		return
	}
	c.dev.IssueACT(now, r, b, req.loc.Row)
	c.emit(dram.Command{Kind: dram.CmdACT, At: now, Rank: r, Bank: b, Row: req.loc.Row})
}

// removeReq deletes req from the given queue and its bank index,
// returns it to the free list, and wakes any core waiting for queue
// space.
func (c *Controller) removeReq(queue *[]*request, req *request) {
	q := *queue
	for i, r := range q {
		if r == req {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			*queue = q[:len(q)-1]
			break
		}
	}
	c.indexFor(queue).remove(req)
	c.release(req)
	if queue != &c.fillQ {
		c.notifySpace()
	}
}

// filterQueue removes every request of queue that drop selects (drop
// runs once per request, in queue order), resynchronizes the queue's
// bank index, and returns the removed requests to the free list. With
// notify set, a removal wakes any core waiting for queue space. Every
// bulk removal (SRAM probes, fill drops) routes through here.
func (c *Controller) filterQueue(queue *[]*request, notify bool, drop func(*request) bool) {
	kept := (*queue)[:0]
	for _, req := range *queue {
		if drop(req) {
			c.release(req)
			continue
		}
		kept = append(kept, req)
	}
	if len(kept) == len(*queue) {
		return
	}
	*queue = kept
	c.indexFor(queue).rebuild(kept)
	if notify {
		c.notifySpace()
	}
}

func (c *Controller) notifySpace() {
	if c.spaceFn != nil {
		c.spaceFn()
	}
}

// closeIdleRows implements the closed-page policy: precharge one open
// bank whose row no queued request wants. It reports whether a PRE was
// issued; pending-but-illegal PREs are retried via closePageWake.
func (c *Controller) closeIdleRows(now event.Cycle) bool {
	for r := 0; r < c.geo.Ranks; r++ {
		for b := 0; b < c.geo.Banks; b++ {
			open := c.dev.OpenRow(r, b)
			if open < 0 || c.rowWanted(r, b, int(open)) {
				continue
			}
			if c.dev.EarliestPRE(now, r, b) == now {
				c.dev.IssuePRE(now, r, b)
				c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: r, Bank: b})
				return true
			}
		}
	}
	return false
}

// rowWanted reports whether any queued request targets the open row.
// The bank indexes narrow the check to the bank's own pending lists.
func (c *Controller) rowWanted(rank, bank, row int) bool {
	for _, req := range c.readIdx.list(rank, bank) {
		if req.loc.Row == row {
			return true
		}
	}
	for _, req := range c.writeIdx.list(rank, bank) {
		if req.loc.Row == row {
			return true
		}
	}
	for _, req := range c.fillIdx.list(rank, bank) {
		if req.loc.Row == row {
			return true
		}
	}
	return false
}
