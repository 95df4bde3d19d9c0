package memctrl

import (
	"fmt"
	"math"
	"math/bits"

	"ropsim/internal/event"
)

// This file implements the controller's exact wake discipline: instead
// of re-arming a tick at now+1 whenever any work is pending (the
// original busy-polling, which burned an event per simulated cycle
// through every refresh freeze and timing stall), armAfterTick computes
// the first cycle at which the controller could actually do anything —
// issue a command, or advance a refresh phase — and sleeps until then.
//
// The computation is exact, not a heuristic: between controller ticks
// the DRAM timing state is constant (it only advances when the
// controller issues commands) and the queues only change at enqueues
// (which arm an immediate tick of their own). So the first
// "interesting" cycle is a pure function of the state at arm time:
//   - per rank, the refresh state machine's next transition time
//     (refreshWake): due boundaries, drain/fill deadlines, the closing
//     sequence's next legal PRE/REF, and the freeze end;
//   - per queue, the earliest legal issue cycle over the per-bank
//     pending lists (queueWake), via dram.Device.NextReadyCycle; the
//     same sweep names the request to serve then, and is kept as the
//     queue's plan so the tick that wakes issues it without sweeping
//     again;
//   - under the closed-page ablation, the earliest legal idle-row PRE
//     (closePageWake).
// Queue-emptiness phase transitions, which the original loop acted on
// one tick later by construction, return now+1. The write-drain flag,
// which every polled tick updates, is replayed instead (syncDrain) when
// it oscillates or settles with the queues empty; DESIGN.md §7 lists
// where sleeping still differs from polling.

// cycleNever is the "no wake needed" sentinel, beyond any simulated
// time.
const cycleNever = event.Cycle(math.MaxInt64)

// minCycle returns the smaller of two cycles.
func minCycle(a, b event.Cycle) event.Cycle {
	if b < a {
		return b
	}
	return a
}

// armAfterTick schedules the controller's next wake from the post-tick
// state, reproducing the arming decision of the original per-cycle
// loop. While work remains (a command issued this tick, or any queue or
// refresh phase is active) the loop chained a tick at now+1; here the
// sleep jumps to the first cycle that can act, armed as a chained wake
// so its queue position matches the per-cycle chain it replaces. Once
// idle, the arming is the loop's own: the pending closed-page PRE
// retry if one exists, else the next refresh due time, as plain wakes.
func (c *Controller) armAfterTick(now event.Cycle, issued bool) {
	idle := c.Idle()
	if issued || !idle {
		if idle {
			// This tick's command drained the last pending work: the
			// polling chain runs one final no-op tick at now+1 whose idle
			// arming fixes the far wake's queue position. Run that tick
			// for real rather than sleeping past it.
			c.ensureWake(now + 1)
			return
		}
		next := c.nextWake(now)
		if next <= now || next == cycleNever {
			next = now + 1
		}
		c.armChained(next)
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
}

// armChained arms the next tick at cycle at as a chained wake (see
// event.Queue.ScheduleChained), recording the handle so an enqueue
// during the sleep can pull the wake forward via ensureWake.
func (c *Controller) armChained(at event.Cycle) {
	if c.wakeAt >= 0 && c.wakeAt <= at {
		return
	}
	if debugWake != nil {
		debugWake("arm", c.q.Now(), at, int(c.wakeAt))
	}
	c.wakeChained = true
	c.wakeArmedAt = c.q.Now()
	c.wakeAt = at
	c.wakeChain = c.q.ScheduleChained(at, c.tickFn)
}

// nextWake computes the next interesting cycle without arming it.
func (c *Controller) nextWake(now event.Cycle) event.Cycle {
	next := cycleNever
	for r := range c.refresh {
		next = minCycle(next, c.refreshWake(r, now))
	}
	next = minCycle(next, c.scheduleWake(now))
	if c.cfg.ClosedPage {
		next = minCycle(next, c.closePageWake(now))
	}
	return next
}

// refreshWake reports the next cycle rank r's refresh state machine
// can make progress. Deadline-driven phases wake at their deadline;
// phases gated on queue emptiness wake at now+1 once the condition
// holds (the original per-cycle loop acted on it one tick after the
// issuing tick, because refreshStep runs before scheduleStep).
func (c *Controller) refreshWake(r int, now event.Cycle) event.Cycle {
	rr := &c.refresh[r]
	switch rr.phase {
	case refIdle:
		switch c.pol.seq {
		case seqOutOfOrder:
			return c.oooWake(r, now)
		case seqElastic:
			if rr.backlog > 0 && (rr.backlog >= maxElasticBacklog || !c.hasDemandReads(r)) {
				return now + 1 // owed refresh can issue in this idle gap
			}
		}
		return rr.due
	case refDraining:
		if !c.targetHasReads(r) {
			return now + 1
		}
		return rr.drainDeadline
	case refFilling:
		if !c.hasFills(r) {
			return now + 1
		}
		return rr.deadline
	case refPaused:
		if !c.hasDemandReads(r) {
			return now + 1
		}
		// Forced resume: the first cycle the segments no longer fit.
		return max(c.pauseForcedAt(r), now+1)
	case refClosing:
		at, _ := c.closingNext(r, now+1)
		return at
	case refRefreshing:
		return rr.refEnd
	}
	return cycleNever
}

// oooWake reports the next cycle the out-of-order refresh scheduler
// could act for rank r: now+1 when a slot is pickable right now
// (refreshStep runs the pick on its next tick), else the earliest
// upcoming slot-schedule boundary — the first cycle a refresh becomes
// owed (possibly forcing an issue) or a pull-in credit decays (freeing
// room for another pull-in), either of which can change the pick.
// Queue changes that unblock a pick between boundaries arm immediate
// ticks of their own.
func (c *Controller) oooWake(r int, now event.Cycle) event.Cycle {
	if slot, _ := c.pickOoOSlot(r, now); slot >= 0 {
		return now + 1
	}
	refi := c.dev.Params().REFI
	t := cycleNever
	for _, d := range c.refresh[r].slotDue {
		var b event.Cycle
		if d > now {
			// Next cycle this slot's ahead-count drops by one (its due
			// boundary when only one tREFI ahead).
			b = d - ((d-now-1)/refi)*refi
		} else {
			// Already owed: next cycle its owed-count grows by one.
			b = d + ((now-d)/refi+1)*refi
		}
		t = minCycle(t, b)
	}
	return t
}

// nextDrainState applies one per-cycle update of the write-drain
// hysteresis (Config.WriteHigh/WriteLow watermarks, plus the idle-read
// trigger) to d and returns the new state. scheduleStep and
// scheduleWake share it so the wake computation tracks the issue path
// exactly.
func (c *Controller) nextDrainState(d bool) bool {
	if d {
		return len(c.writeQ) > c.cfg.WriteLow
	}
	return len(c.writeQ) >= c.cfg.WriteHigh ||
		(len(c.readQ) == 0 && len(c.fillQ) == 0 && len(c.writeQ) > 0)
}

// scheduleWake reports the earliest cycle scheduleStep could issue a
// command, given the queues and the write-drain hysteresis state. The
// sweeps it runs are stored as the queues' plans, which the next tick's
// issueFrom issues without sweeping again. It also records how the
// drain flag would evolve under per-cycle polling, for syncDrain.
func (c *Controller) scheduleWake(now event.Cycle) event.Cycle {
	// Every polled tick updates the drain flag once, so over a sleep it
	// runs f1, f2, f1, f2, ...: either it settles after one step, or it
	// oscillates and every other tick can issue a write. syncDrain
	// replays an oscillating flag, and one settling with the queues
	// empty; one settling with work queued keeps its one-update lag
	// across the sleep (DESIGN.md §7).
	f1 := c.nextDrainState(c.draining)
	f2 := c.nextDrainState(f1)
	c.drainAt, c.drainNext = now, [2]bool{f2, f1}
	empty := len(c.readQ) == 0 && len(c.writeQ) == 0 && len(c.fillQ) == 0
	c.drainMoves = f1 != f2 || empty && f1 != c.draining
	if empty {
		return cycleNever
	}
	if f1 != f2 {
		return c.drainOscWake(now)
	}
	from := now + 1
	t := c.plan(&c.readIdx, from).at
	if len(c.fillQ) > 0 {
		t = minCycle(t, c.plan(&c.fillIdx, from).at)
	}
	if f1 {
		t = minCycle(t, c.plan(&c.writeIdx, from).at)
	}
	return t
}

// drainOscWake is scheduleWake for a drain flag that does not settle:
// no reads or fills are queued and at most WriteLow writes wait, so
// under per-cycle polling the flag flips on every tick and only ticks
// that set it can issue a write. The wake is the first such cycle at
// which a write is ready. Under DARP the refresh pick reads the flag,
// so that mode keeps ticking every cycle.
func (c *Controller) drainOscWake(now event.Cycle) event.Cycle {
	if c.pol.drainAware {
		return now + 1
	}
	at := c.plan(&c.writeIdx, now+1).at
	// The tick at t leaves the flag at draining xor (t-now odd). A write
	// ready at a tick that clears the flag is still ready one cycle later:
	// every Earliest* bound is a lower bound, fixed until the next issue.
	if at < cycleNever && c.draining == ((at-now)%2 == 1) {
		at++
	}
	return at
}

// drainAfter reports the drain flag per-cycle polling would hold after
// the tick at cycle t, for t after drainAt.
func (c *Controller) drainAfter(t event.Cycle) bool {
	return c.drainNext[(t-c.drainAt)%2]
}

// syncDrain replays, at the start of the tick at now, the drain flag
// updates of the polling ticks skipped since the sleep armed at drainAt.
func (c *Controller) syncDrain(now event.Cycle) {
	if c.drainMoves && now > c.drainAt+1 {
		c.draining = c.drainAfter(now - 1)
	}
	c.drainMoves = false
}

// plan returns the queue's scheduling plan from cycle from: the stored
// sweep when neither the queue, the device timing, nor the refresh
// blocking state has changed since it ran and it still applies at from,
// else a fresh sweep. A stored sweep from an earlier base whose pick is
// at or after from is the sweep from from: each candidate's ready cycle
// is a lower bound on the cycle, fixed until the next issue.
func (c *Controller) plan(ix *bankIndex, from event.Cycle) *queuePlan {
	p := &ix.plan
	if p.ver != ix.ver || p.devVer != c.devVer || from < p.from || p.at < from {
		*p = c.queueWake(ix, from)
	} else if CrossCheckWake {
		if fresh := c.queueWake(ix, from); fresh.at != p.at || fresh.req != p.req || fresh.hit != p.hit {
			panic(fmt.Sprintf("stale plan from %d (swept from %d): planned %d hit=%v, fresh %d hit=%v, mode=%v write=%v",
				from, p.from, p.at, p.hit, fresh.at, fresh.hit, c.cfg.Mode, ix.write))
		}
	}
	return p
}

// queueWake sweeps the indexed queue once: it returns the earliest
// cycle ≥ from at which any request could issue its next command
// (column access, PRE, or ACT) and the request FR-FCFS serves then —
// row hits before preparations, oldest first (queuePlan.offer). Only a
// bank's oldest request of each class competes: all row hits of a bank
// share the column timing, all misses the PRE timing, and a closed
// bank's ACT timing is row-independent except for per-subarray refresh
// locks. Demand queues skip banks the refresh machine is quiescing
// (blockedBanks); the tick that advances the refresh phase re-plans
// them.
func (c *Controller) queueWake(ix *bankIndex, from event.Cycle) queuePlan {
	p := queuePlan{at: cycleNever, from: from, ver: ix.ver, devVer: c.devVer}
	saMode := c.pol.gran == granSubarray || c.pol.gran == granSlotSubarray
	for r, occ := range ix.occ {
		if ix.demand {
			occ &^= c.blockedBanks(r)
		}
		for ; occ != 0; occ &= occ - 1 {
			b := bits.TrailingZeros64(occ)
			l := ix.lists[r*ix.banks+b]
			if open := c.dev.OpenRow(r, b); open >= 0 {
				seenHit, seenMiss := false, false
				for _, req := range l {
					hit := int64(req.loc.Row) == open
					if hit && !seenHit || !hit && !seenMiss {
						p.offer(c.dev.NextReadyCycle(from, r, b, req.loc.Row, ix.write), req, hit)
					}
					seenHit = seenHit || hit
					seenMiss = seenMiss || !hit
					if seenHit && seenMiss {
						break
					}
				}
				continue
			}
			for _, req := range l {
				p.offer(c.dev.NextReadyCycle(from, r, b, req.loc.Row, ix.write), req, false)
				if !saMode {
					break
				}
			}
		}
	}
	return p
}

// foldPlan updates the queue's stored plan for req, just appended to
// it. req is the queue's youngest request, so where an older request
// of its bank and class exists (which the sweep weighed, or which lost
// to the pick), it has the same ready cycle and loses the tie: folding
// req in directly keeps the plan equal to a fresh sweep.
func (c *Controller) foldPlan(ix *bankIndex, req *request) {
	p := &ix.plan
	p.ver = ix.ver
	r, b := req.loc.Rank, req.loc.Bank
	if ix.demand && c.blockedBanks(r)>>uint(b)&1 != 0 {
		return
	}
	hit := int64(req.loc.Row) == c.dev.OpenRow(r, b)
	p.offer(c.dev.NextReadyCycle(p.from, r, b, req.loc.Row, ix.write), req, hit)
}

// blockedBanks is the mask of rank's banks that refresh quiescing bars
// demand commands from: the banks of the closing refresh slot under the
// slot granularities, else all of them (a subarray refresh, too,
// quiesces the whole rank for its brief close). Other refresh locks show
// in the device timing; SARP's never set a bank's refresh lock, so for
// it this closing quiesce is the only bank-wide block.
func (c *Controller) blockedBanks(rank int) uint64 {
	if c.refresh == nil || c.refresh[rank].phase != refClosing {
		return 0
	}
	if g := c.pol.gran; g != granSlot && g != granSlotSubarray {
		return ^uint64(0)
	}
	var m uint64
	for _, b := range c.dev.SlotBanks(c.refresh[rank].targetBank) {
		m |= 1 << uint(b)
	}
	return m
}

// closePageWake reports the earliest legal PRE over open banks whose
// row no queued request wants (the closed-page policy's work), or
// cycleNever when every open row is wanted.
func (c *Controller) closePageWake(now event.Cycle) event.Cycle {
	t := cycleNever
	for r := 0; r < c.geo.Ranks; r++ {
		for b := 0; b < c.geo.Banks; b++ {
			open := c.dev.OpenRow(r, b)
			if open < 0 || c.rowWanted(r, b, int(open)) {
				continue
			}
			t = minCycle(t, c.dev.EarliestPRE(now+1, r, b))
		}
	}
	return t
}
