package memctrl

import (
	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// debugElastic is a test hook.
var debugElastic func(now, due event.Cycle, backlog, readq int)

// debugOoO is a test hook observing out-of-order refresh accounting at
// each issue: the rank's owed (postponed) and pulled-ahead refresh
// counts right after the issue.
var debugOoO func(now event.Cycle, owed, ahead int)

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
	// refPaused (ModePausing): a partially-completed refresh waits for
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
// refreshes (ModeElastic and the out-of-order bank modes).
const maxElasticBacklog = 8

// maxPullInAhead is the JEDEC limit on refreshes issued ahead of
// schedule (the pull-in half of the 8×tREFI elasticity window the
// out-of-order bank modes exploit).
const maxPullInAhead = 8

// pauseSegments is how many pausable segments one refresh divides into
// (ModePausing), and pauseResumeOverhead the extra cycles each resumed
// segment costs for re-locking.
const (
	pauseSegments       = 8
	pauseResumeOverhead = 4
)

// rankRefresh tracks one rank's refresh progress.
type rankRefresh struct {
	// backlog counts refreshes owed but postponed (ModeElastic).
	backlog int
	// segDone counts completed segments of the in-flight pausable
	// refresh (ModePausing).
	segDone int
	// targetBank is the refresh target this round: under bank modes it
	// is the refresh slot (dram.Device.SlotBanks maps it to the banks
	// one command locks; slots take turns round-robin), under subarray
	// mode the bank itself.
	targetBank int
	// targetSA is the subarray being refreshed (ModeSubarrayRefresh).
	targetSA int
	// slotDue (out-of-order bank modes) is each refresh slot's own
	// schedule: the tREFI boundary its next refresh is nominally due at.
	// Out-of-order scheduling picks among slots instead of rotating, so
	// the schedule must be tracked per slot rather than via due.
	slotDue []event.Cycle
	// slotSA (ModeSARP) is each refresh slot's rotating subarray
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
				if c.cfg.Mode == ModeSubarrayRefresh {
					if now >= rr.due {
						rr.phase = refClosing
						progress = true
					}
					break
				}
				if c.oooMode() {
					if slot, pullIn := c.pickOoOSlot(r, now); slot >= 0 {
						rr.targetBank = slot
						rr.pullIn = pullIn
						rr.phase = refClosing
						progress = true
					}
					break
				}
				if c.bankMode() {
					if now >= rr.due {
						c.beginBankRefresh(r, now)
						progress = true
					}
					break
				}
				if c.cfg.Mode == ModeElastic {
					if debugElastic != nil {
						debugElastic(now, rr.due, rr.backlog, len(c.readQ))
					}
					if now >= rr.due {
						rr.backlog++
						rr.due += c.dev.Params().REFI
						progress = true
					}
					// Issue owed refreshes in idle gaps, or forcibly at
					// the JEDEC backlog limit.
					if rr.backlog > 0 &&
						(rr.backlog >= maxElasticBacklog || !c.hasDemandReads(r)) {
						rr.phase = refClosing
						progress = true
					}
					break
				}
				if now >= rr.due {
					c.beginRefresh(r, now)
					progress = true
				}
			case refDraining:
				if c.bankMode() {
					if now >= rr.drainDeadline || !c.hasBankReads(r, rr.targetBank) {
						c.startBankFills(r, now)
						progress = true
					}
					break
				}
				if now >= rr.drainDeadline || !c.hasDemandReads(r) {
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
				if c.cfg.Mode == ModeSubarrayRefresh {
					if c.closeSubarrayStep(r, now) {
						return true
					}
					break
				}
				if c.cfg.Mode == ModeSARP {
					if c.closeSARPStep(r, now) {
						return true
					}
					break
				}
				if c.bankMode() {
					if c.closeBankStep(r, now) {
						return true
					}
					break
				}
				if c.closeStep(r, now) {
					return true
				}
			case refPaused:
				// Resume once the rank's reads drained, or when the
				// remaining segments would no longer fit before the
				// next due time.
				if !c.hasDemandReads(r) || c.pausingForced(r, now) {
					rr.phase = refClosing
					progress = true
				}
			case refRefreshing:
				if now >= rr.refEnd {
					if c.cfg.Mode == ModeSubarrayRefresh {
						rr.phase = refIdle
						progress = true
						break
					}
					if c.bankMode() {
						rr.phase = refIdle
						if c.rop != nil {
							c.rop.OnRefreshEnd(r, now)
						}
						progress = true
						break
					}
					if c.cfg.Mode == ModePausing && rr.segDone < pauseSegments {
						if c.hasDemandReads(r) && !c.pausingForced(r, now) {
							rr.phase = refPaused
						} else {
							rr.phase = refClosing
						}
						progress = true
						break
					}
					rr.segDone = 0
					rr.phase = refIdle
					if c.rop != nil {
						c.rop.OnRefreshEnd(r, now)
					}
					progress = true
				}
			}
		}
	}
	return false
}

// beginRefresh runs when a rank's refresh becomes due: in ROP mode it
// consults the engine and starts the drain phase; the baseline proceeds
// straight to closing banks.
func (c *Controller) beginRefresh(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	if c.rop == nil {
		rr.phase = refClosing
		return
	}
	refi := float64(c.dev.Params().REFI)
	dec := c.rop.OnRefreshStart(rank, now)
	rr.wantPrefetch = dec.Prefetch
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
	rr.phase = refDraining
}

// startFills ends the drain phase: candidates are generated from the
// table's current state and queued as prefetch fills.
func (c *Controller) startFills(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	rr.phase = refClosing
	if !rr.wantPrefetch {
		return
	}
	c.launchFills(rank, c.rop.GenerateCandidates(rank), now)
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
// (an O(1) read of the bank index's per-rank count).
func (c *Controller) hasDemandReads(rank int) bool {
	return c.readIdx.rankN[rank] > 0
}

// hasFills reports whether any prefetch fill for rank is still pending.
func (c *Controller) hasFills(rank int) bool {
	return c.fillIdx.rankN[rank] > 0
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

// closeStep precharges one open bank, or issues REF once the rank is
// quiesced. It reports whether a command was issued.
func (c *Controller) closeStep(rank int, now event.Cycle) bool {
	rr := &c.refresh[rank]
	geo := c.geo
	for b := 0; b < geo.Banks; b++ {
		if c.dev.OpenRow(rank, b) < 0 {
			continue
		}
		if c.dev.EarliestPRE(now, rank, b) == now {
			c.dev.IssuePRE(now, rank, b)
			c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: rank, Bank: b})
			return true
		}
		return false // a bank is open but PRE is not yet legal: wait
	}
	if c.dev.EarliestREF(now, rank) != now {
		return false
	}
	if c.cfg.Mode == ModePausing {
		return c.issueSegment(rank, now)
	}
	end := c.dev.IssueREF(now, rank)
	if c.capture != nil {
		c.capture.Refresh(now, rank)
	}
	c.emit(dram.Command{Kind: dram.CmdREF, At: now, Rank: rank})
	c.RefreshesIssued.Inc()
	if c.cfg.Mode == ModeElastic {
		// Elastic accounting: due already advanced when the refresh
		// became owed; the postponement is how far behind schedule this
		// issue is.
		rr.backlog--
		behind := now - (rr.due - c.dev.Params().REFI*event.Cycle(rr.backlog+1))
		c.RefreshPostponedCycles.Observe(float64(behind))
	} else {
		c.RefreshPostponedCycles.Observe(float64(now - rr.due))
		rr.due += c.dev.Params().REFI
	}
	rr.refEnd = end
	rr.phase = refRefreshing

	// Reads that are still queued for this rank ride out the freeze
	// unless the SRAM buffer can serve them right now.
	if c.rop != nil {
		c.probeQueuedReads(now, func(l addr.Loc) bool { return l.Rank == rank })
	}
	return true
}

// pausingForced reports whether a paused refresh must push through: the
// remaining segments (with closing slack) no longer fit before the next
// tREFI boundary.
func (c *Controller) pausingForced(rank int, now event.Cycle) bool {
	rr := &c.refresh[rank]
	p := c.dev.Params()
	segLen := p.RFC / pauseSegments
	remaining := event.Cycle(pauseSegments-rr.segDone) * (segLen + pauseResumeOverhead + 20)
	// The in-flight refresh must finish before the next one is due.
	return now+remaining >= rr.due+p.REFI
}

// issueSegment issues one pausable-refresh segment for ModePausing. The
// logical refresh completes (and the schedule advances) when the last
// segment ends.
func (c *Controller) issueSegment(rank int, now event.Cycle) bool {
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
	return true
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

// SetDebugElastic installs the elastic-refresh test hook (diagnostics).
func SetDebugElastic(fn func(now, due int64, backlog, readq int)) {
	if fn == nil {
		debugElastic = nil
		return
	}
	debugElastic = func(now, due event.Cycle, backlog, readq int) {
		fn(int64(now), int64(due), backlog, readq)
	}
}

// SetDebugOoO installs the out-of-order refresh test hook
// (diagnostics): it observes the rank's owed and pulled-ahead refresh
// counts right after each out-of-order issue.
func SetDebugOoO(fn func(now int64, owed, ahead int)) {
	if fn == nil {
		debugOoO = nil
		return
	}
	debugOoO = func(now event.Cycle, owed, ahead int) {
		fn(int64(now), owed, ahead)
	}
}

// beginBankRefresh starts one bank's refresh round (bank modes). Under
// ModeROPBank the engine's gate decides whether the bank's predicted
// lines are staged first.
func (c *Controller) beginBankRefresh(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	if c.rop == nil {
		rr.phase = refClosing
		return
	}
	cadence := float64(c.dev.Params().REFI) / float64(c.dev.RefreshSlots())
	dec := c.rop.OnRefreshStart(rank, now)
	rr.wantPrefetch = dec.Prefetch
	rr.drainDeadline = now + event.FromFloat(0.1*cadence)
	rr.deadline = now + event.FromFloat(0.5*cadence)
	rr.phase = refDraining
}

// hasBankReads reports whether any queued demand read targets a bank of
// the given refresh slot.
func (c *Controller) hasBankReads(rank, slot int) bool {
	for _, b := range c.dev.SlotBanks(slot) {
		if len(c.readIdx.list(rank, b)) > 0 {
			return true
		}
	}
	return false
}

// startBankFills generates and queues prefetch fills for every bank of
// the target refresh slot.
func (c *Controller) startBankFills(rank int, now event.Cycle) {
	rr := &c.refresh[rank]
	rr.phase = refClosing
	if !rr.wantPrefetch {
		return
	}
	var locs []addr.Loc
	for _, b := range c.dev.SlotBanks(rr.targetBank) {
		locs = append(locs, c.rop.GenerateBankCandidates(rank, b)...)
	}
	c.launchFills(rank, locs, now)
}

// closeBankStep precharges the target refresh slot's open banks (one
// per tick) and then issues the slot's bank-granularity refresh: one
// command that locks every bank of the slot's set (a single bank under
// per-bank refresh, one bank per group under DDR5 same-bank refresh).
// It reports whether a command was issued.
func (c *Controller) closeBankStep(rank int, now event.Cycle) bool {
	rr := &c.refresh[rank]
	slot := rr.targetBank
	for _, b := range c.dev.SlotBanks(slot) {
		if c.dev.OpenRow(rank, b) < 0 {
			continue
		}
		if c.dev.EarliestPRE(now, rank, b) == now {
			c.dev.IssuePRE(now, rank, b)
			c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: rank, Bank: b})
			return true
		}
		return false // a set bank is open but PRE is not yet legal: wait
	}
	if c.dev.EarliestREFSlot(now, rank, slot) != now {
		return false
	}
	end := c.dev.IssueREFSlot(now, rank, slot)
	if c.capture != nil {
		c.capture.Refresh(now, rank)
	}
	for _, b := range c.dev.SlotBanks(slot) {
		c.emit(dram.Command{Kind: dram.CmdREFpb, At: now, Rank: rank, Bank: b})
	}
	c.RefreshesIssued.Inc()
	if c.oooMode() {
		// Out-of-order accounting: each slot keeps its own schedule, and
		// the issue either retires an owed refresh (postponement is how
		// far past the slot's boundary it ran) or banks a pull-in.
		if rr.pullIn {
			c.RefreshPullIns.Inc()
		} else {
			c.RefreshPostponedCycles.Observe(float64(now - rr.slotDue[slot]))
		}
		if c.cfg.Mode == ModeDARP && c.draining {
			c.DrainPiggybacks.Inc()
		}
		rr.slotDue[slot] += c.dev.Params().REFI
		rr.pullIn = false
		due := rr.slotDue[0]
		for _, d := range rr.slotDue[1:] {
			if d < due {
				due = d
			}
		}
		rr.due = due
		if debugOoO != nil {
			owed, ahead := c.oooBacklog(rank, now)
			debugOoO(now, owed, ahead)
		}
	} else {
		c.RefreshPostponedCycles.Observe(float64(now - rr.due))
		rr.due += c.dev.Params().REFI / event.Cycle(c.dev.RefreshSlots())
	}
	rr.refEnd = end
	rr.phase = refRefreshing
	if c.rop != nil {
		c.probeQueuedReads(now, func(l addr.Loc) bool {
			return l.Rank == rank && c.dev.SlotOf(l.Bank) == slot
		})
	}
	if !c.oooMode() {
		rr.targetBank = (rr.targetBank + 1) % c.dev.RefreshSlots()
	}
	return true
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
	if c.cfg.Mode == ModeDARP && c.draining {
		return !c.hasBankWrites(rank, slot)
	}
	return !c.hasBankReads(rank, slot)
}

// hasBankWrites reports whether any queued write targets a bank of the
// given refresh slot.
func (c *Controller) hasBankWrites(rank, slot int) bool {
	for _, b := range c.dev.SlotBanks(slot) {
		if len(c.writeIdx.list(rank, b)) > 0 {
			return true
		}
	}
	return false
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

// closeSubarrayStep precharges the target subarray's open row (if any)
// and issues its refresh. It reports whether a command was issued.
func (c *Controller) closeSubarrayStep(rank int, now event.Cycle) bool {
	rr := &c.refresh[rank]
	p := c.dev.Params()
	b, sa := rr.targetBank, rr.targetSA
	if open := c.dev.OpenRow(rank, b); open >= 0 && c.dev.SubarrayOf(int(open)) == sa {
		if c.dev.EarliestPRE(now, rank, b) == now {
			c.dev.IssuePRE(now, rank, b)
			c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: rank, Bank: b})
			return true
		}
		return false
	}
	if c.dev.EarliestREFsa(now, rank, b, sa) != now {
		return false
	}
	end := c.dev.IssueREFsa(now, rank, b, sa)
	if c.capture != nil {
		c.capture.Refresh(now, rank)
	}
	c.emit(dram.Command{Kind: dram.CmdREFsa, At: now, Rank: rank, Bank: b, Sub: sa})
	c.RefreshesIssued.Inc()
	c.RefreshPostponedCycles.Observe(float64(now - rr.due))
	rr.refEnd = end
	rr.due += p.REFI / event.Cycle(c.geo.Banks*p.Subarrays)
	rr.phase = refRefreshing
	// Advance the round-robin target: subarrays within a bank, then the
	// next bank.
	rr.targetSA++
	if rr.targetSA >= p.Subarrays {
		rr.targetSA = 0
		rr.targetBank = (rr.targetBank + 1) % c.geo.Banks
	}
	return true
}

// closeSARPStep issues one subarray-confined per-bank refresh to the
// target slot (SARP, Chang et al. HPCA'14): the slot's banks keep
// serving demand to every other subarray while the target subarray
// absorbs the full tRFCpb refresh. Open rows inside the target
// subarray are precharged first (one per tick); rows elsewhere in the
// bank stay open.
func (c *Controller) closeSARPStep(rank int, now event.Cycle) bool {
	rr := &c.refresh[rank]
	slot := rr.targetBank
	sa := rr.slotSA[slot]
	for _, b := range c.dev.SlotBanks(slot) {
		open := c.dev.OpenRow(rank, b)
		if open < 0 || c.dev.SubarrayOf(int(open)) != sa {
			continue
		}
		if c.dev.EarliestPRE(now, rank, b) == now {
			c.dev.IssuePRE(now, rank, b)
			c.emit(dram.Command{Kind: dram.CmdPRE, At: now, Rank: rank, Bank: b})
			return true
		}
		return false
	}
	if c.dev.EarliestREFpbSub(now, rank, slot, sa) != now {
		return false
	}
	end := c.dev.IssueREFpbSub(now, rank, slot, sa)
	if c.capture != nil {
		c.capture.Refresh(now, rank)
	}
	for _, b := range c.dev.SlotBanks(slot) {
		c.emit(dram.Command{Kind: dram.CmdREFsa, At: now, Rank: rank, Bank: b, Sub: sa})
	}
	c.RefreshesIssued.Inc()
	c.RefreshPostponedCycles.Observe(float64(now - rr.due))
	rr.refEnd = end
	rr.due += c.dev.Params().REFI / event.Cycle(c.dev.RefreshSlots())
	rr.phase = refRefreshing
	// Rotate this slot's subarray, then hand the round to the next slot.
	rr.slotSA[slot] = (sa + 1) % c.dev.Params().Subarrays
	rr.targetBank = (rr.targetBank + 1) % c.dev.RefreshSlots()
	return true
}
