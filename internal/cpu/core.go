// Package cpu models the processor front-end of the simulation: a
// trace-driven core that retires one instruction per CPU cycle between
// memory stalls and exploits memory-level parallelism the way the
// paper's out-of-order cores do — loads overlap until either the MSHRs
// fill or the oldest incomplete load falls outside the reorder window.
// Writes are posted and only stall on queue backpressure.
package cpu

import (
	"fmt"

	"ropsim/internal/event"
	"ropsim/internal/stats"
	"ropsim/internal/workload"
)

// ReadStatus is the outcome of a Memory.Read call.
type ReadStatus int

// Read outcomes.
const (
	// ReadHit completed in the LLC; the callback will not run.
	ReadHit ReadStatus = iota
	// ReadMiss was accepted by the memory system; the callback runs when
	// data returns.
	ReadMiss
	// ReadRejected means the memory system is full; retry after the
	// space notification.
	ReadRejected
)

// Memory is the core's view of the memory hierarchy (LLC + controller).
// Implementations must be driven by the same event queue as the core.
type Memory interface {
	// Read looks up a cache line for core src. On ReadMiss, done fires
	// when the data arrives.
	Read(line uint64, src int, done func(event.Cycle)) ReadStatus
	// Write posts a store. It reports false when the system is full.
	Write(line uint64, src int) bool
}

// Config parameterizes the core model.
type Config struct {
	// ROBWindow is how many younger instructions may retire past an
	// incomplete load before the core stalls.
	ROBWindow int
	// MSHRs bounds outstanding LLC misses.
	MSHRs int
	// HitExtraCPU is the un-hidden latency of an LLC hit in CPU cycles.
	HitExtraCPU event.CPUCycle
}

// DefaultConfig returns the configuration used in the experiments: a
// 192-entry window, 8 MSHRs, and mostly-hidden LLC hits.
func DefaultConfig() Config {
	return Config{ROBWindow: 192, MSHRs: 8, HitExtraCPU: 2}
}

// Validate reports an error for impossible parameters.
func (c Config) Validate() error {
	if c.ROBWindow <= 0 || c.MSHRs <= 0 || c.HitExtraCPU < 0 {
		return fmt.Errorf("cpu: bad config %+v", c)
	}
	return nil
}

// mshr is one miss-status holding register: the load it tracks and
// the completion callback bound to the slot once, in New, so that
// issuing a miss allocates nothing.
type mshr struct {
	instPos int64 // instruction count at issue
	done    bool
	onDone  func(event.Cycle)
}

// Core replays one benchmark trace against a Memory.
type Core struct {
	cfg   Config
	id    int
	trace workload.Stream
	mem   Memory
	q     *event.Queue
	limit int64 // instructions to retire

	cpuNow    event.CPUCycle
	instCount int64
	pending   *workload.Record  // fetched but not yet issued memory op
	pendRec   workload.Record   // backing store for pending (avoids a per-record heap allocation)
	gapLeft   int64             // compute instructions still owed before pending
	mshrs     []mshr            // one per Config.MSHRs
	loads     []int             // MSHR slots of outstanding loads, oldest first
	free      []int             // MSHR slots not in loads
	stepFn    func(event.Cycle) // step as a stored closure, reused by every reschedule

	waitingSpace bool
	finished     bool
	onFinish     func()

	// MemReads, MemWrites and LLCHitReads count retired memory
	// operations by outcome: reads that went to memory, writes, and
	// reads absorbed by the LLC.
	MemReads, MemWrites, LLCHitReads stats.Counter
	// StallMSHR and StallROB count CPU cycles lost to a full MSHR
	// (outstanding-miss limit) and a full ROB window, respectively.
	StallMSHR, StallROB stats.Counter
}

// New builds a core that will retire limit instructions from trace.
func New(cfg Config, id int, trace workload.Stream, mem Memory, q *event.Queue, limit int64) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if limit <= 0 {
		panic("cpu: instruction limit must be positive")
	}
	c := &Core{cfg: cfg, id: id, trace: trace, mem: mem, q: q, limit: limit}
	c.stepFn = func(at event.Cycle) { c.step(at) }
	c.mshrs = make([]mshr, cfg.MSHRs)
	c.loads = make([]int, 0, cfg.MSHRs)
	c.free = make([]int, cfg.MSHRs)
	for i := range c.mshrs {
		c.mshrs[i].onDone = func(at event.Cycle) { c.loadDone(i, at) }
		c.free[i] = i
	}
	return c
}

// RegisterMetrics registers the core's memory-traffic and stall
// counters plus derived progress gauges into r (typically a
// "cpu.coreN"-scoped sub-registry). Cycle gauges are in CPU cycles
// (3.2 GHz domain); IPC is instructions per CPU cycle.
func (c *Core) RegisterMetrics(r *stats.Registry) {
	r.Register("mem_reads", &c.MemReads)
	r.Register("mem_writes", &c.MemWrites)
	r.Register("llc_hit_reads", &c.LLCHitReads)
	r.Register("stall_mshr", &c.StallMSHR)
	r.Register("stall_rob", &c.StallROB)
	r.Gauge("instructions", func() float64 { return float64(c.instCount) })
	r.Gauge("cpu_cycles", func() float64 { return float64(c.cpuNow) })
	r.Gauge("ipc", c.IPC)
}

// Start begins execution; onFinish runs once when the core has retired
// its instruction limit and all outstanding loads have returned.
func (c *Core) Start(onFinish func()) {
	c.onFinish = onFinish
	c.q.Schedule(c.q.Now(), c.stepFn)
}

// Finished reports whether the core completed its run.
func (c *Core) Finished() bool { return c.finished }

// Cycles reports the CPU cycles consumed so far (final value after
// finish).
func (c *Core) Cycles() event.CPUCycle { return c.cpuNow }

// Instructions reports retired instructions.
func (c *Core) Instructions() int64 { return c.instCount }

// IPC reports instructions per CPU cycle (0 before any progress).
func (c *Core) IPC() float64 {
	if c.cpuNow == 0 {
		return 0
	}
	return float64(c.instCount) / float64(c.cpuNow)
}

// NotifySpace retries a memory operation rejected for queue space.
func (c *Core) NotifySpace() {
	if c.waitingSpace && !c.finished {
		c.waitingSpace = false
		c.q.Schedule(c.q.Now(), c.stepFn)
	}
}

// oldestIncomplete returns the oldest incomplete load, or nil when
// none.
func (c *Core) oldestIncomplete() *mshr {
	for _, slot := range c.loads {
		if m := &c.mshrs[slot]; !m.done {
			return m
		}
	}
	return nil
}

// reapLoads drops completed loads from the front of the window and
// frees their MSHR slots.
func (c *Core) reapLoads() {
	i := 0
	for i < len(c.loads) && c.mshrs[c.loads[i]].done {
		c.free = append(c.free, c.loads[i])
		i++
	}
	if i > 0 {
		c.loads = append(c.loads[:0], c.loads[i:]...)
	}
}

// stalled reports whether the core cannot issue its next operation, and
// which completion will unblock it.
func (c *Core) stalled() bool {
	c.reapLoads()
	if len(c.loads) >= c.cfg.MSHRs {
		c.StallMSHR.Inc()
		return true
	}
	if m := c.oldestIncomplete(); m != nil &&
		c.instCount-m.instPos >= int64(c.cfg.ROBWindow) {
		c.StallROB.Inc()
		return true
	}
	return false
}

// step advances execution as far as possible at bus-cycle now, then
// either schedules its next action or parks waiting for a completion or
// space notification.
func (c *Core) step(now event.Cycle) {
	if c.finished {
		return
	}
	sync := func() {
		if busCPU := event.ToCPU(now); c.cpuNow < busCPU {
			c.cpuNow = busCPU
		}
	}
	for {
		if c.instCount >= c.limit {
			c.pending = nil
			c.maybeFinish()
			return
		}
		c.reapLoads()

		if c.pending == nil {
			rec, ok := c.trace.Next()
			if !ok {
				// Trace exhausted early: treat as finished.
				c.limit = c.instCount
				c.maybeFinish()
				return
			}
			c.pendRec = rec
			c.pending = &c.pendRec
			c.gapLeft = int64(rec.Gap)
		}

		// Retire the compute gap at 1 IPC, but never move more than
		// ROBWindow instructions past an incomplete load: the window
		// fills and the core stalls mid-gap.
		if c.gapLeft > 0 {
			allowed := c.gapLeft
			if m := c.oldestIncomplete(); m != nil {
				room := m.instPos + int64(c.cfg.ROBWindow) - c.instCount
				if room < allowed {
					allowed = room
				}
			}
			if rem := c.limit - c.instCount; rem < allowed {
				allowed = rem
			}
			if allowed > 0 {
				sync()
				c.instCount += allowed
				//simlint:cycles "the IPC-1 core retires one instruction per CPU cycle, so an instruction count is a CPU-cycle count"
				c.cpuNow += event.CPUCycle(allowed)
				c.gapLeft -= allowed
			}
			if c.instCount >= c.limit {
				c.pending = nil
				c.maybeFinish()
				return
			}
			if c.gapLeft > 0 {
				c.StallROB.Inc()
				return // the oldest load's completion resumes us
			}
		}

		if c.stalled() {
			// Do not advance cpuNow: the core resumes at the completion
			// that unblocks it, not at unrelated events.
			return
		}
		sync()

		// The memory operation issues at its CPU time; if that is in the
		// future of the bus clock, come back then.
		opBus := event.ToBus(c.cpuNow)
		if opBus > now {
			c.q.Schedule(opBus, c.stepFn)
			return
		}
		rec := *c.pending
		if rec.Write {
			if !c.mem.Write(rec.Line, c.id) {
				c.waitingSpace = true
				return
			}
			c.MemWrites.Inc()
		} else {
			// stalled guarantees a free slot; only a miss claims it.
			slot := c.free[len(c.free)-1]
			switch c.mem.Read(rec.Line, c.id, c.mshrs[slot].onDone) {
			case ReadRejected:
				c.waitingSpace = true
				return
			case ReadHit:
				c.LLCHitReads.Inc()
				c.cpuNow += c.cfg.HitExtraCPU
			case ReadMiss:
				c.MemReads.Inc()
				c.free = c.free[:len(c.free)-1]
				c.mshrs[slot].instPos, c.mshrs[slot].done = c.instCount, false
				c.loads = append(c.loads, slot)
			}
		}
		c.pending = nil
		c.instCount++
		c.cpuNow++
	}
}

// loadDone handles the completion of the load in MSHR slot.
func (c *Core) loadDone(slot int, at event.Cycle) {
	c.mshrs[slot].done = true
	if c.finished {
		return
	}
	if c.instCount >= c.limit {
		// The run is over; this completion may be the last one holding
		// up the finish.
		c.maybeFinish()
		return
	}
	c.q.Schedule(at, c.stepFn)
}

// maybeFinish completes the run once every outstanding load returned.
func (c *Core) maybeFinish() {
	c.reapLoads()
	if c.oldestIncomplete() != nil {
		return // remaining completions re-enter via loadDone -> step
	}
	if !c.finished {
		c.finished = true
		if c.onFinish != nil {
			c.onFinish()
		}
	}
}
