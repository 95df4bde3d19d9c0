package memctrl

import (
	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// The refresh machinery follows the LiteDRAM-family refreshers'
// timer/sequencer/executor split (DESIGN.md §12). The timer is the
// granularity's cadence (Controller.cadence); each other stage reads one
// policy axis:
//   - the sequencer (sequence, account; policy.seq) decides when an idle
//     rank's next refresh starts and, out of order, which slot it
//     targets;
//   - the ROP stage (beginRefresh, startFills; policy.rop) drains and
//     fills ahead of the freeze, and serves reads during it;
//   - the executor (closingNext, closeStep, issueRefresh; policy.gran)
//     precharges the target and issues the granularity's REF form.

// refPhase is the per-rank refresh state.
type refPhase int

const (
	// refIdle: no refresh activity; waiting for the next due time.
	refIdle refPhase = iota
	// refDraining (ROP only): demand reads to the rank are drained
	// before the rank freezes (paper §IV-D).
	refDraining
	// refFilling (ROP only): predicted lines are fetched into the SRAM
	// buffer. Candidates are generated at the drain/fill boundary so
	// they reflect the stream position right before the freeze.
	refFilling
	// refPaused (pausing sequencing): a partially-completed refresh waits for
	// the rank's pending reads to drain before its next segment.
	refPaused
	// refClosing: open banks are being precharged so REF can issue.
	refClosing
	// refRefreshing: REF issued; the rank is frozen until refEnd.
	refRefreshing
)

// drainFracREFI bounds the drain phase as a fraction of tREFI; the fill
// phase is bounded by Config.MaxRefreshDelay overall.
const drainFracREFI = 0.03

// maxElasticBacklog is the JEDEC limit on outstanding postponed
// refreshes (elastic and out-of-order sequencing).
const maxElasticBacklog = 8

// maxPullInAhead is the JEDEC limit on refreshes issued ahead of
// schedule (the pull-in half of the 8×tREFI elasticity window
// out-of-order sequencing exploits).
const maxPullInAhead = 8

// pauseSegments is how many pausable segments one refresh divides into
// (pausing sequencing), and pauseResumeOverhead the extra cycles each resumed
// segment costs for re-locking.
const (
	pauseSegments       = 8
	pauseResumeOverhead = 4
)

// rankRefresh tracks one rank's refresh progress.
type rankRefresh struct {
	// backlog counts refreshes owed but postponed (elastic sequencing).
	backlog int
	// segDone counts completed segments of the in-flight pausable
	// refresh (pausing sequencing).
	segDone int
	// targetBank is the refresh target this round: under the slot
	// granularities it is the refresh slot (dram.Device.SlotBanks maps
	// it to the banks one command locks), under subarray granularity the
	// bank itself.
	targetBank int
	// targetSA is the subarray being refreshed (subarray granularity).
	targetSA int
	// slotDue (out-of-order sequencing) is each refresh slot's own
	// schedule: the tREFI boundary its next refresh is nominally due at.
	// Out-of-order scheduling picks among slots instead of rotating, so
	// the schedule must be tracked per slot rather than via due.
	slotDue []event.Cycle
	// slotSA (SARP granularity) is each refresh slot's rotating subarray
	// counter. Kept per slot so slot rotation and subarray rotation
	// cannot alias when RefreshSlots divides Subarrays evenly.
	slotSA []int
	// pullIn marks the pending refClosing issue as a pull-in (the picked
	// slot's schedule is still in the future).
	pullIn        bool
	phase         refPhase
	due           event.Cycle // scheduled tREFI boundary of the next refresh
	drainDeadline event.Cycle // drain must finish by here (ROP)
	deadline      event.Cycle // fills must finish by here (ROP)
	refEnd        event.Cycle // unlock time of the in-flight refresh
	fillStart     event.Cycle // when the fill phase began
	wantPrefetch  bool        // the engine's gate decision for this refresh
}

// refreshStep advances every rank's refresh state machine and issues at
// most one command (PRE or REF). It reports whether a command was
// issued this cycle.
func (c *Controller) refreshStep(now event.Cycle) bool {
	for r := range c.refresh {
		rr := &c.refresh[r]
		progress := true
		for progress {
			progress = false
			switch rr.phase {
			case refIdle:
				progress = c.sequence(r, now)
			case refDraining:
				if now >= rr.drainDeadline || !c.targetHasReads(r) {
					c.startFills(r, now)
					progress = true
				}
			case refFilling:
				if now >= rr.deadline || !c.hasFills(r) {
					c.FillPhaseCycles.Observe(float64(now - rr.fillStart))
					c.dropFills(r)
					rr.phase = refClosing
					progress = true
				}
			case refClosing:
				if c.closeStep(r, now) {
					return true
				}
			case refPaused:
				// Resume once the rank's reads drained, or when the
				// remaining segments would no longer fit before the
				// next due time.
				if !c.hasDemandReads(r) || now >= c.pauseForcedAt(r) {
					rr.phase = refClosing
					progress = true
				}
			case refRefreshing:
				if now < rr.refEnd {
					break
				}
				progress = true
				if c.pol.seq == seqPausing && rr.segDone < pauseSegments {
					if c.hasDemandReads(r) && now < c.pauseForcedAt(r) {
						rr.phase = refPaused
					} else {
						rr.phase = refClosing
					}
					break
				}
				rr.segDone = 0
				rr.phase = refIdle
				if c.rop != nil {
					c.rop.OnRefreshEnd(r, now)
				}
			}
			if progress {
				c.devVer++ // the phase step may change refresh blocking
			}
		}
	}
	return false
}

// sequence is the sequencer for idle rank r: it starts the next
// refresh when the policy's sequencing says so, and reports whether the
// rank's refresh state moved.
func (c *Controller) sequence(r int, now event.Cycle) bool {
	rr := &c.refresh[r]
	switch c.pol.seq {
	case seqOutOfOrder:
		slot, pullIn := c.pickOoOSlot(r, now)
		if slot < 0 {
			return false
		}
		rr.targetBank, rr.pullIn = slot, pullIn
	case seqElastic:
		owed := now >= rr.due
		if owed {
			rr.backlog++
			rr.due += c.cadence
		}
		// Issue owed refreshes in idle gaps, or forcibly at the JEDEC
		// backlog limit.
		if rr.backlog == 0 || rr.backlog < maxElasticBacklog && c.hasDemandReads(r) {
			return owed
		}
	default:
		if now < rr.due {
			return false
		}
	}
	c.beginRefresh(r, now)
	return true
}

// beginRefresh starts the refresh the sequencer picked. Without ROP the
// target goes straight to closing. With it, the engine's gate decides
// whether the target's predicted lines are staged first, and the drain
// and fill deadlines are sized to the granularity's freeze cadence.
func (c *Controller) beginRefresh(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	if c.rop == nil {
		rr.phase = refClosing
		return
	}
	dec := c.rop.OnRefreshStart(rank, now)
	rr.wantPrefetch = dec.Prefetch
	rr.phase = refDraining
	if c.pol.gran != granRank {
		cadence := float64(c.dev.Params().REFI) / float64(c.dev.RefreshSlots())
		rr.drainDeadline = now + event.FromFloat(0.1*cadence)
		rr.deadline = now + event.FromFloat(0.5*cadence)
		return
	}
	refi := float64(c.dev.Params().REFI)
	// Load-aware throttle: when the shared channel is bandwidth-bound
	// (deep read queue), prefetch fills cannot add throughput — every
	// mispredicted fill is pure bus waste — so the launch is skipped.
	// The drain optimization still applies.
	if len(c.readQ) >= c.cfg.ReadQueueCap/4 {
		rr.wantPrefetch = false
		c.PrefetchThrottled.Inc()
	}
	rr.drainDeadline = now + event.FromFloat(drainFracREFI*refi)
	// The fill budget scales with the buffer and with how many ranks
	// share the channel (each fill needs ~6 bus cycles of leftover
	// bandwidth, and other ranks' demand traffic shrinks the leftover).
	// MaxRefreshDelay still bounds the total postponement (JEDEC allows
	// up to 8 tREFI), and the per-rank stagger keeps fill sessions of
	// consecutive ranks from overlapping.
	//simlint:cycles "SRAM lines × ~6 bus cycles per fill (plus fixed slack), scaled by rank count: a bus-cycle budget by construction"
	fillBudget := event.Cycle((6*c.cfg.ROP.SRAMLines + 200) * (c.geo.Ranks + 1) / 2)
	if stagger := c.dev.Params().REFI / event.Cycle(c.geo.Ranks); fillBudget > stagger*3/4 {
		fillBudget = stagger * 3 / 4
	}
	if bound := event.FromFloat(c.cfg.MaxRefreshDelay * refi); rr.drainDeadline+fillBudget > now+bound {
		fillBudget = now + bound - rr.drainDeadline
	}
	rr.deadline = rr.drainDeadline + fillBudget
}

// startFills ends the drain phase: candidates for the banks the refresh
// will freeze are generated from the table's current state and queued
// as prefetch fills.
func (c *Controller) startFills(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	rr.phase = refClosing
	if !rr.wantPrefetch {
		return
	}
	if c.pol.gran == granRank {
		c.launchFills(rank, c.rop.GenerateCandidates(rank), now)
		return
	}
	var locs []addr.Loc
	for _, b := range c.dev.SlotBanks(rr.targetBank) {
		locs = append(locs, c.rop.GenerateBankCandidates(rank, b)...)
	}
	c.launchFills(rank, locs, now)
}

// launchFills claims the SRAM buffer for rank and queues locs as the
// rank's prefetch fills, moving it to refFilling. With no candidates
// the rank stays in refClosing.
func (c *Controller) launchFills(rank int, locs []addr.Loc, now event.Cycle) {
	if len(locs) == 0 {
		return
	}
	// Close out the previous session's consumption accounting before
	// the buffer is claimed for this one.
	buf := c.rop.Buffer()
	if prev := buf.Owner(); prev >= 0 {
		inserted := int(buf.Inserted.Value() - c.sessionInsertedMark)
		c.rop.NoteSessionEnd(prev, inserted, inserted-buf.UsedCount())
	}
	if !buf.Acquire(rank) {
		return
	}
	c.sessionInsertedMark = buf.Inserted.Value()
	for _, loc := range locs {
		c.pushRequest(&c.fillQ, c.newRequest(loc, now, 0, true, nil))
	}
	rr := &c.refresh[rank]
	rr.fillStart = now
	rr.phase = refFilling
}

// hasDemandReads reports whether any queued demand read targets rank
// (an O(1) read of the bank index's occupancy mask).
func (c *Controller) hasDemandReads(rank int) bool {
	return c.readIdx.occ[rank] != 0
}

// hasFills reports whether any prefetch fill for rank is still pending.
func (c *Controller) hasFills(rank int) bool {
	return c.fillIdx.occ[rank] != 0
}

// dropFills abandons any prefetch fills for the rank that did not make
// the drain deadline; whatever was inserted into the buffer stays.
func (c *Controller) dropFills(rank int) {
	c.filterQueue(&c.fillQ, false, func(req *request) bool {
		if req.loc.Rank != rank {
			return false
		}
		c.FillsDropped.Inc()
		return true
	})
}

// targetHasReads reports whether any queued demand read targets a bank
// rank's pending refresh will freeze: the ROP drain's exit condition.
func (c *Controller) targetHasReads(rank int) bool {
	if c.pol.gran == granRank {
		return c.hasDemandReads(rank)
	}
	return c.slotQueued(&c.readIdx, rank, c.refresh[rank].targetBank)
}

// refreshTarget returns the banks rank's pending refresh covers and,
// under the subarray granularities, the subarray it covers in each
// (else -1).
func (c *Controller) refreshTarget(rank int) (banks []int, sa int) {
	rr := &c.refresh[rank]
	switch c.pol.gran {
	case granSlot:
		return c.dev.SlotBanks(rr.targetBank), -1
	case granSubarray:
		return c.allBanks[rr.targetBank : rr.targetBank+1], rr.targetSA
	case granSlotSubarray:
		return c.dev.SlotBanks(rr.targetBank), rr.slotSA[rr.targetBank]
	}
	return c.allBanks, -1
}

// closingNext is the closing executor's one decision for rank: its next
// command and the earliest cycle at or after from it is legal. That is
// a PRE to the first open bank of the target (under the subarray
// granularities, only a bank whose open row lies in the target
// subarray; bank ≥ 0), else the target's REF (bank -1).
func (c *Controller) closingNext(rank int, from event.Cycle) (at event.Cycle, bank int) {
	banks, sa := c.refreshTarget(rank)
	for _, b := range banks {
		if open := c.dev.OpenRow(rank, b); open >= 0 && (sa < 0 || c.dev.SubarrayOf(int(open)) == sa) {
			return c.dev.EarliestPRE(from, rank, b), b
		}
	}
	slot := c.refresh[rank].targetBank
	switch c.pol.gran {
	case granSlot:
		return c.dev.EarliestREFSlot(from, rank, slot), -1
	case granSubarray:
		return c.dev.EarliestREFsa(from, rank, slot, sa), -1
	case granSlotSubarray:
		return c.dev.EarliestREFpbSub(from, rank, slot, sa), -1
	}
	return c.dev.EarliestREF(from, rank), -1
}

// closeStep issues rank's next closing command if it is legal at now,
// and reports whether it did.
func (c *Controller) closeStep(rank int, now event.Cycle) bool {
	at, b := c.closingNext(rank, now)
	if at != now {
		return false
	}
	if b < 0 {
		c.issueRefresh(rank, now)
		return true
	}
	c.dev.IssuePRE(now, rank, b)
	c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: rank, Bank: b})
	return true
}

// issueRefresh issues rank's pending refresh at now in the
// granularity's REF form (one command per locked bank below rank
// granularity), books it with the sequencer, and rotates the target.
// Pausing sequencing issues its own segments instead.
func (c *Controller) issueRefresh(rank int, now event.Cycle) {
	if c.pol.seq == seqPausing {
		c.issueSegment(rank, now)
		return
	}
	rr := &c.refresh[rank]
	slot := rr.targetBank
	banks, sa := c.refreshTarget(rank)
	cmd := dram.Command{Kind: dram.CmdREFpb, At: now, Rank: rank}
	var end event.Cycle
	switch c.pol.gran {
	case granRank:
		end = c.dev.IssueREF(now, rank)
		c.emit(dram.Command{Kind: dram.CmdREF, At: now, Rank: rank})
		banks = nil
	case granSlot:
		end = c.dev.IssueREFSlot(now, rank, slot)
	case granSubarray:
		end = c.dev.IssueREFsa(now, rank, slot, sa)
		cmd.Kind, cmd.Sub = dram.CmdREFsa, sa
	case granSlotSubarray:
		end = c.dev.IssueREFpbSub(now, rank, slot, sa)
		cmd.Kind, cmd.Sub = dram.CmdREFsa, sa
	}
	for _, b := range banks {
		cmd.Bank = b
		c.emit(cmd)
	}
	if c.capture != nil {
		c.capture.Refresh(now, rank)
	}
	c.RefreshesIssued.Inc()
	c.account(rank, now)
	rr.refEnd = end
	rr.phase = refRefreshing
	c.rotateTarget(rank, sa)

	// Reads that are still queued for the frozen banks ride out the
	// freeze unless the SRAM buffer can serve them right now.
	if c.rop != nil {
		whole := c.pol.gran == granRank
		c.probeQueuedReads(now, func(l addr.Loc) bool {
			return l.Rank == rank && (whole || c.dev.SlotOf(l.Bank) == slot)
		})
	}
}

// account books an issued refresh with the sequencer: it records the
// postponement (or pull-in) and advances the rank's schedule.
func (c *Controller) account(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	switch c.pol.seq {
	case seqElastic:
		// The due time already advanced when the refresh became owed; the
		// postponement is how far behind schedule this issue is.
		rr.backlog--
		behind := now - (rr.due - c.cadence*event.Cycle(rr.backlog+1))
		c.RefreshPostponedCycles.Observe(float64(behind))
	case seqOutOfOrder:
		// Each slot keeps its own schedule, and the issue either retires
		// an owed refresh (postponement is how far past the slot's
		// boundary it ran) or banks a pull-in.
		slot := rr.targetBank
		if rr.pullIn {
			c.RefreshPullIns.Inc()
		} else {
			c.RefreshPostponedCycles.Observe(float64(now - rr.slotDue[slot]))
		}
		if c.pol.drainAware && c.draining {
			c.DrainPiggybacks.Inc()
		}
		rr.slotDue[slot] += c.dev.Params().REFI
		rr.pullIn = false
		rr.due = rr.slotDue[0]
		for _, d := range rr.slotDue[1:] {
			rr.due = min(rr.due, d)
		}
	default:
		c.RefreshPostponedCycles.Observe(float64(now - rr.due))
		rr.due += c.cadence
	}
}

// rotateTarget moves rank's target past the one just refreshed (whose
// subarray was sa): subarrays within a bank and then the next bank at
// subarray granularity; else slots round-robin, each slot rotating its
// own subarray under SARP. Out-of-order sequencing overrides the next
// slot with its own pick.
func (c *Controller) rotateTarget(rank, sa int) {
	rr := &c.refresh[rank]
	subarrays := c.dev.Params().Subarrays
	switch c.pol.gran {
	case granSubarray:
		rr.targetSA = sa + 1
		if rr.targetSA >= subarrays {
			rr.targetSA = 0
			rr.targetBank = (rr.targetBank + 1) % c.geo.Banks
		}
	case granSlotSubarray:
		rr.slotSA[rr.targetBank] = (sa + 1) % subarrays
		fallthrough
	case granSlot:
		rr.targetBank = (rr.targetBank + 1) % c.dev.RefreshSlots()
	}
}

// pauseForcedAt is the cycle from which a paused refresh must push
// through: the remaining segments (with closing slack) would no longer
// fit before the next tREFI boundary, by which the in-flight refresh
// must finish.
func (c *Controller) pauseForcedAt(rank int) event.Cycle {
	rr := &c.refresh[rank]
	p := c.dev.Params()
	segLen := p.RFC / pauseSegments
	remaining := event.Cycle(pauseSegments-rr.segDone) * (segLen + pauseResumeOverhead + 20)
	return rr.due + p.REFI - remaining
}

// issueSegment issues one segment of a pausable rank refresh (pausing
// sequencing's own REF form). The logical refresh completes, and the
// schedule advances, when the last segment ends.
func (c *Controller) issueSegment(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	p := c.dev.Params()
	segLen := p.RFC / pauseSegments
	dur := segLen
	if rr.segDone > 0 {
		dur += pauseResumeOverhead
	}
	if rr.segDone == pauseSegments-1 {
		dur += p.RFC % pauseSegments // remainder sticks to the last segment
	}
	end := c.dev.IssueREFSegment(now, rank, dur)
	c.devVer++ // segments bypass emit, which bumps it for every other command
	rr.segDone++
	rr.refEnd = end
	rr.phase = refRefreshing
	if rr.segDone == pauseSegments {
		if c.capture != nil {
			c.capture.Refresh(now, rank)
		}
		c.RefreshesIssued.Inc()
		c.RefreshPostponedCycles.Observe(float64(end - rr.due))
		rr.due += p.REFI
	}
}

// probeQueuedReads serves the queued demand reads that frozen selects
// (those to the rank or refresh slot that just froze) from the SRAM
// buffer where possible.
func (c *Controller) probeQueuedReads(now event.Cycle, frozen func(addr.Loc) bool) {
	fin := now + c.cfg.SRAMLatency
	c.filterQueue(&c.readQ, true, func(req *request) bool {
		if !frozen(req.loc) || !c.rop.ProbeRead(req.loc, now, true) {
			return false
		}
		c.SRAMServed.Inc()
		c.finishRead(req.arrive, fin, req.done)
		return true
	})
}

// slotQueued reports whether the indexed queue holds a request for any
// bank of rank's refresh slot.
func (c *Controller) slotQueued(ix *bankIndex, rank, slot int) bool {
	for _, b := range c.dev.SlotBanks(slot) {
		if ix.has(rank, b) {
			return true
		}
	}
	return false
}

// oooBacklog tallies the rank's out-of-order refresh position at now:
// owed counts refreshes whose slot boundary has passed without an
// issue, ahead counts refreshes issued before their boundary (pull-ins
// still in credit).
func (c *Controller) oooBacklog(rank int, now event.Cycle) (owed, ahead int) {
	refi := c.dev.Params().REFI
	for _, d := range c.refresh[rank].slotDue {
		if d <= now {
			owed += int((now-d)/refi) + 1
		} else {
			ahead += int((d - now - 1) / refi)
		}
	}
	return owed, ahead
}

// oooSlotIdle reports whether the slot's bank set has no queued demand
// of the kind the scheduler is currently serving: reads normally, and
// writes during a DARP write-drain batch (the drain serves writes, so a
// bank with no queued writes is free to refresh — Chang et al.
// HPCA'14's write-refresh parallelization).
func (c *Controller) oooSlotIdle(rank, slot int) bool {
	if c.pol.drainAware && c.draining {
		return !c.slotQueued(&c.writeIdx, rank, slot)
	}
	return !c.slotQueued(&c.readIdx, rank, slot)
}

// pickOoOSlot chooses which refresh slot (if any) the out-of-order
// scheduler should refresh at now. It returns the slot and whether the
// issue is a pull-in, or -1 when no slot should issue. The policy is
// Chang et al. HPCA'14's out-of-order per-bank refresh: once the rank
// owes maxElasticBacklog refreshes the most-overdue slot issues
// unconditionally; otherwise the earliest-scheduled idle slot issues —
// retiring owed work early when its banks are idle, and pulling future
// refreshes in (up to maxPullInAhead of credit) when everything is on
// schedule.
func (c *Controller) pickOoOSlot(rank int, now event.Cycle) (slot int, pullIn bool) {
	rr := &c.refresh[rank]
	owed, ahead := c.oooBacklog(rank, now)
	if owed >= maxElasticBacklog {
		best := -1
		for s, d := range rr.slotDue {
			if d <= now && (best < 0 || d < rr.slotDue[best]) {
				best = s
			}
		}
		return best, false
	}
	best := -1
	for s, d := range rr.slotDue {
		if !c.oooSlotIdle(rank, s) {
			continue
		}
		if d > now && ahead >= maxPullInAhead {
			continue // pull-in credit exhausted
		}
		if best < 0 || d < rr.slotDue[best] {
			best = s
		}
	}
	if best < 0 {
		return -1, false
	}
	return best, rr.slotDue[best] > now
}
