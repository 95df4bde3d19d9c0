package memctrl

import (
	"fmt"
	"strings"
)

// Mode selects the refresh handling policy. Each mode is a preset: one
// point on the policy axes (see policy), resolved once by New through
// the presets table.
type Mode int

// Refresh handling modes. The values are stable: campaign config hashes
// and journals key on them.
const (
	// ModeBaseline is JEDEC auto-refresh: when a refresh is due the rank
	// closes its banks and freezes for tRFC; conflicting requests wait.
	ModeBaseline Mode = iota
	// ModeNoRefresh is the idealized refresh-free memory used to bound
	// refresh overheads (paper §III-A).
	ModeNoRefresh
	// ModeROP adds the paper's contribution: pre-refresh drain, the
	// probabilistic prefetcher, and SRAM service during the freeze.
	ModeROP
	// ModeElastic is Elastic Refresh (Stuecheli et al., MICRO'10), one
	// of the paper's related-work baselines: a due refresh is postponed
	// while demand reads are pending, up to the JEDEC limit of eight
	// outstanding refreshes, and issued during idle gaps.
	ModeElastic
	// ModePausing is Refresh Pausing (Nair et al., HPCA'13), another
	// related-work baseline: a refresh proceeds in tRFC/8 segments and
	// pauses between segments to service pending reads, resuming when
	// the rank's queue drains (with a re-lock overhead per resume).
	ModePausing
	// ModeBankRefresh refreshes one bank at a time (tREFIpb = tREFI /
	// banks apart, tRFCpb each): the paper's §VII future-work
	// granularity. Sibling banks keep serving during a bank's refresh.
	ModeBankRefresh
	// ModeROPBank combines bank-level refresh with ROP: before a bank
	// refreshes, its predicted lines are staged in the SRAM buffer, so
	// even the refreshed bank keeps answering reads.
	ModeROPBank
	// ModeSubarrayRefresh refreshes one subarray at a time (the paper's
	// §VII finest granularity, SALP-style): only rows of the refreshing
	// subarray conflict; the rest of the bank keeps serving.
	ModeSubarrayRefresh
	// ModeOutOfOrderBank is out-of-order per-bank refresh scheduling
	// (Chang et al. HPCA'14 §4.2 baseline scheduler): each refresh
	// slot's due time is tracked separately, an idle slot's refresh is
	// pulled forward and a busy slot's postponed, both within the JEDEC
	// eight-command pull-in/postpone window.
	ModeOutOfOrderBank
	// ModeDARP is Dynamic Access-Refresh Parallelization (Chang et al.
	// HPCA'14): out-of-order per-bank refresh plus write-drain
	// piggybacking — during a write-drain batch, refreshes issue to
	// banks with no pending writes, hiding them under the drain.
	ModeDARP
	// ModeSARP is Subarray Access-Refresh Parallelization (Chang et al.
	// HPCA'14): a bank's refresh is confined to one subarray per
	// command, so demand to the bank's other subarrays proceeds during
	// the whole tRFCpb window (~0.71% DRAM die cost, surfaced as a
	// metric).
	ModeSARP
)

// policy is a refresh policy as independent axes. Each axis owns its
// own refresh phase transitions (DESIGN.md §12): the sequencing decides
// when a rank leaves refIdle and which slot it targets, ROP owns the
// drain and fill phases, and the granularity picks the closing
// executor's target and REF form.
type policy struct {
	gran       granularity
	seq        sequencing
	drainAware bool // DARP: a write-drain batch judges slot idleness by queued writes
	rop        bool // drain, prefetch into the SRAM buffer, and serve from it around each freeze
}

// granularity is what one refresh command covers.
type granularity uint8

const (
	granNone         granularity = iota // no refresh at all
	granRank                            // REF: every bank of the rank, for tRFC
	granSlot                            // REFpb: one refresh slot's bank set, for tRFCpb
	granSubarray                        // REFsa: one subarray of one bank, for tRFCsa
	granSlotSubarray                    // SARP: one subarray in each bank of a slot, for tRFCpb
)

// sequencing decides when a rank's next refresh starts.
type sequencing uint8

const (
	seqInOrder    sequencing = iota // each refresh at its due time, targets in rotation
	seqElastic                      // owed refreshes wait for idle gaps, up to maxElasticBacklog
	seqPausing                      // each refresh in pauseSegments segments, pausing for reads
	seqOutOfOrder                   // per-slot schedules: idle slots pulled in, busy ones postponed
)

// presets is the one table of refresh policies: each mode's CLI
// spelling and its point on the policy axes.
var presets = [...]struct {
	name string
	pol  policy
}{
	ModeBaseline:        {"baseline", policy{gran: granRank}},
	ModeNoRefresh:       {"norefresh", policy{gran: granNone}},
	ModeROP:             {"rop", policy{gran: granRank, rop: true}},
	ModeElastic:         {"elastic", policy{gran: granRank, seq: seqElastic}},
	ModePausing:         {"pausing", policy{gran: granRank, seq: seqPausing}},
	ModeBankRefresh:     {"bankrefresh", policy{gran: granSlot}},
	ModeROPBank:         {"rop-bank", policy{gran: granSlot, rop: true}},
	ModeSubarrayRefresh: {"subarray", policy{gran: granSubarray}},
	ModeOutOfOrderBank:  {"ooo-bank", policy{gran: granSlot, seq: seqOutOfOrder}},
	ModeDARP:            {"darp", policy{gran: granSlot, seq: seqOutOfOrder, drainAware: true}},
	ModeSARP:            {"sarp", policy{gran: granSlotSubarray}},
}

// policy resolves the mode through the presets table; ok is false for a
// value outside it.
func (m Mode) policy() (pol policy, ok bool) {
	if m < 0 || int(m) >= len(presets) {
		return policy{}, false
	}
	return presets[m].pol, true
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if _, ok := m.policy(); ok {
		return presets[m].name
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode returns the mode whose String is name. An unknown name is
// an error that lists the valid ones.
func ParseMode(name string) (Mode, error) {
	names := make([]string, len(presets))
	for m, p := range presets {
		if p.name == name {
			return Mode(m), nil
		}
		names[m] = p.name
	}
	return 0, fmt.Errorf("unknown mode %q (valid: %s)", name, strings.Join(names, ", "))
}
