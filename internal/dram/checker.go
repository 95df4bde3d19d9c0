package dram

import (
	"fmt"

	"ropsim/internal/addr"
	"ropsim/internal/event"
)

// Checker independently validates a stream of issued commands against the
// JEDEC timing rules. It deliberately shares no state-update code with
// Device so that tests can cross-check the two implementations: any
// command Device admits must also pass the Checker.
type Checker struct {
	p   Params
	geo addr.Geometry

	// REFsaDur overrides the subarray-lock duration the checker models
	// for CmdREFsa: zero selects tRFCsa (ModeSubarrayRefresh); SARP runs
	// set it to tRFCpb, since SARP confines a full per-bank refresh to
	// one subarray per command (Chang et al. HPCA'14).
	REFsaDur event.Cycle

	open       [][]int64       // open row per rank/bank, noRow if closed
	lastACT    [][]event.Cycle // per bank
	lastPRE    [][]event.Cycle
	lastRDCmd  [][]event.Cycle
	lastWRCmd  [][]event.Cycle
	rankACTs   [][]event.Cycle   // ACT history per rank (for tRRD/tFAW)
	lastWREnd  []event.Cycle     // per rank: end of last write burst
	refEnd     []event.Cycle     // per rank
	bankRefEnd [][]event.Cycle   // per bank: end of an in-flight REFpb
	saRefEnd   [][][]event.Cycle // per bank: subarray-refresh ends, lazily allocated
	busBusyTil event.Cycle
	seen       bool // any command seen yet
	lastAt     event.Cycle
}

const neverIssued = event.Cycle(-1 << 60)

// NewChecker builds a checker for the given parameters and geometry.
func NewChecker(p Params, geo addr.Geometry) *Checker {
	c := &Checker{p: p, geo: geo}
	c.open = make([][]int64, geo.Ranks)
	c.lastACT = make([][]event.Cycle, geo.Ranks)
	c.lastPRE = make([][]event.Cycle, geo.Ranks)
	c.lastRDCmd = make([][]event.Cycle, geo.Ranks)
	c.lastWRCmd = make([][]event.Cycle, geo.Ranks)
	c.rankACTs = make([][]event.Cycle, geo.Ranks)
	c.lastWREnd = make([]event.Cycle, geo.Ranks)
	c.refEnd = make([]event.Cycle, geo.Ranks)
	c.bankRefEnd = make([][]event.Cycle, geo.Ranks)
	c.saRefEnd = make([][][]event.Cycle, geo.Ranks)
	for r := 0; r < geo.Ranks; r++ {
		c.bankRefEnd[r] = fillNever(geo.Banks)
		c.saRefEnd[r] = make([][]event.Cycle, geo.Banks)
		c.open[r] = make([]int64, geo.Banks)
		c.lastACT[r] = fillNever(geo.Banks)
		c.lastPRE[r] = fillNever(geo.Banks)
		c.lastRDCmd[r] = fillNever(geo.Banks)
		c.lastWRCmd[r] = fillNever(geo.Banks)
		c.lastWREnd[r] = neverIssued
		c.refEnd[r] = neverIssued
		for b := range c.open[r] {
			c.open[r][b] = noRow
		}
	}
	return c
}

func fillNever(n int) []event.Cycle {
	s := make([]event.Cycle, n)
	for i := range s {
		s[i] = neverIssued
	}
	return s
}

// subarrayOf mirrors Device.SubarrayOf independently (the checker
// shares no code with Device by design): rows partition evenly into
// Subarrays regions, with the remainder clamped into the last.
func (c *Checker) subarrayOf(row int) int {
	if c.p.Subarrays <= 0 {
		return 0
	}
	per := c.geo.Rows / c.p.Subarrays
	if per == 0 {
		return 0
	}
	sa := row / per
	if sa >= c.p.Subarrays {
		sa = c.p.Subarrays - 1
	}
	return sa
}

func (c *Checker) violation(cmd Command, format string, args ...any) error {
	return fmt.Errorf("dram: %s@%d r%d b%d: %s", cmd.Kind, cmd.At, cmd.Rank, cmd.Bank,
		fmt.Sprintf(format, args...))
}

func (c *Checker) requireGap(cmd Command, since event.Cycle, gap event.Cycle, rule string) error {
	if since == neverIssued {
		return nil
	}
	if cmd.At < since+gap {
		return c.violation(cmd, "%s violated: last at %d, need +%d", rule, since, gap)
	}
	return nil
}

// Check validates one command and, when legal, applies its state effects.
// Commands must be fed in non-decreasing time order.
func (c *Checker) Check(cmd Command) error {
	if c.seen && cmd.At < c.lastAt {
		return c.violation(cmd, "command stream not time-ordered (prev %d)", c.lastAt)
	}
	c.seen = true
	c.lastAt = cmd.At
	if cmd.Rank < 0 || cmd.Rank >= c.geo.Ranks {
		return c.violation(cmd, "rank out of range")
	}
	if cmd.Kind != CmdREF && (cmd.Bank < 0 || cmd.Bank >= c.geo.Banks) {
		return c.violation(cmd, "bank out of range")
	}
	r, b := cmd.Rank, cmd.Bank
	if cmd.At < c.refEnd[r] {
		return c.violation(cmd, "rank frozen by refresh until %d", c.refEnd[r])
	}

	switch cmd.Kind {
	case CmdACT:
		if c.open[r][b] != noRow {
			return c.violation(cmd, "bank already open (row %d)", c.open[r][b])
		}
		if cmd.At < c.bankRefEnd[r][b] {
			return c.violation(cmd, "bank frozen by per-bank refresh until %d", c.bankRefEnd[r][b])
		}
		if sas := c.saRefEnd[r][b]; sas != nil {
			if sa := c.subarrayOf(cmd.Row); cmd.At < sas[sa] {
				return c.violation(cmd, "ACT into subarray %d refreshing until %d", sa, sas[sa])
			}
		}
		if err := c.requireGap(cmd, c.lastACT[r][b], c.p.RC, "tRC"); err != nil {
			return err
		}
		if err := c.requireGap(cmd, c.lastPRE[r][b], c.p.RP, "tRP"); err != nil {
			return err
		}
		acts := c.rankACTs[r]
		if len(acts) > 0 {
			if err := c.requireGap(cmd, acts[len(acts)-1], c.p.RRD, "tRRD"); err != nil {
				return err
			}
		}
		if len(acts) >= 4 {
			if err := c.requireGap(cmd, acts[len(acts)-4], c.p.FAW, "tFAW"); err != nil {
				return err
			}
		}
		c.open[r][b] = int64(cmd.Row)
		c.lastACT[r][b] = cmd.At
		c.rankACTs[r] = append(acts, cmd.At)

	case CmdPRE:
		if c.open[r][b] == noRow {
			return c.violation(cmd, "bank already precharged")
		}
		if err := c.requireGap(cmd, c.lastACT[r][b], c.p.RAS, "tRAS"); err != nil {
			return err
		}
		if err := c.requireGap(cmd, c.lastRDCmd[r][b], c.p.RTP, "tRTP"); err != nil {
			return err
		}
		if c.lastWRCmd[r][b] != neverIssued {
			wrEnd := c.lastWRCmd[r][b] + c.p.CWL + c.p.DataCycles()
			if cmd.At < wrEnd+c.p.WR {
				return c.violation(cmd, "tWR violated: write data ended %d", wrEnd)
			}
		}
		c.open[r][b] = noRow
		c.lastPRE[r][b] = cmd.At

	case CmdRD, CmdWR:
		if c.open[r][b] == noRow {
			return c.violation(cmd, "column command to precharged bank")
		}
		if err := c.requireGap(cmd, c.lastACT[r][b], c.p.RCD, "tRCD"); err != nil {
			return err
		}
		for ob := 0; ob < c.geo.Banks; ob++ {
			if err := c.requireGap(cmd, c.lastRDCmd[r][ob], c.p.CCD, "tCCD"); err != nil {
				return err
			}
			if err := c.requireGap(cmd, c.lastWRCmd[r][ob], c.p.CCD, "tCCD"); err != nil {
				return err
			}
		}
		var dataStart event.Cycle
		if cmd.Kind == CmdRD {
			if c.lastWREnd[r] != neverIssued && cmd.At < c.lastWREnd[r]+c.p.WTR {
				return c.violation(cmd, "tWTR violated: write data ended %d", c.lastWREnd[r])
			}
			dataStart = cmd.At + c.p.CL
			c.lastRDCmd[r][b] = cmd.At
		} else {
			dataStart = cmd.At + c.p.CWL
			c.lastWRCmd[r][b] = cmd.At
			c.lastWREnd[r] = dataStart + c.p.DataCycles()
		}
		if dataStart < c.busBusyTil {
			return c.violation(cmd, "data bus busy until %d, burst starts %d", c.busBusyTil, dataStart)
		}
		c.busBusyTil = dataStart + c.p.DataCycles()

	case CmdREF:
		for ob := 0; ob < c.geo.Banks; ob++ {
			if c.open[r][ob] != noRow {
				return c.violation(cmd, "REF with bank %d open", ob)
			}
			if cmd.At < c.bankRefEnd[r][ob] {
				return c.violation(cmd, "REF over bank %d's per-bank refresh (until %d)",
					ob, c.bankRefEnd[r][ob])
			}
			if err := c.requireGap(Command{Kind: CmdREF, At: cmd.At, Rank: r, Bank: ob},
				c.lastPRE[r][ob], c.p.RP, "tRP-before-REF"); err != nil {
				return err
			}
		}
		c.refEnd[r] = cmd.At + c.p.RFC

	case CmdREFpb:
		if c.p.RFCpb <= 0 {
			return c.violation(cmd, "REFpb without RFCpb timing")
		}
		if c.open[r][b] != noRow {
			return c.violation(cmd, "REFpb with bank open (row %d)", c.open[r][b])
		}
		if cmd.At < c.bankRefEnd[r][b] {
			return c.violation(cmd, "bank already refreshing until %d", c.bankRefEnd[r][b])
		}
		if err := c.requireGap(cmd, c.lastPRE[r][b], c.p.RP, "tRP-before-REFpb"); err != nil {
			return err
		}
		if err := c.requireGap(cmd, c.lastACT[r][b], c.p.RC, "tRC-before-REFpb"); err != nil {
			return err
		}
		c.bankRefEnd[r][b] = cmd.At + c.p.RFCpb

	case CmdREFsa:
		// Mirrors Device.IssueREFsa / IssueREFpbSub semantics: the target
		// subarray must be quiet (no open row inside it, no refresh in
		// flight on it), but the bank itself keeps serving, so there is
		// deliberately no tRP/tRC gating against the whole bank.
		dur := c.REFsaDur
		if dur <= 0 {
			dur = c.p.RFCsa
		}
		if dur <= 0 || c.p.Subarrays <= 0 {
			return c.violation(cmd, "REFsa without subarray timing")
		}
		if cmd.Sub < 0 || cmd.Sub >= c.p.Subarrays {
			return c.violation(cmd, "subarray %d out of range", cmd.Sub)
		}
		if cmd.At < c.bankRefEnd[r][b] {
			return c.violation(cmd, "REFsa over bank's per-bank refresh (until %d)", c.bankRefEnd[r][b])
		}
		if c.open[r][b] != noRow && c.subarrayOf(int(c.open[r][b])) == cmd.Sub {
			return c.violation(cmd, "REFsa with the target subarray's row open (row %d)", c.open[r][b])
		}
		if sas := c.saRefEnd[r][b]; sas != nil && cmd.At < sas[cmd.Sub] {
			return c.violation(cmd, "subarray already refreshing until %d", sas[cmd.Sub])
		}
		if c.saRefEnd[r][b] == nil {
			c.saRefEnd[r][b] = fillNever(c.p.Subarrays)
		}
		c.saRefEnd[r][b][cmd.Sub] = cmd.At + dur

	default:
		return c.violation(cmd, "unknown command kind")
	}
	return nil
}
