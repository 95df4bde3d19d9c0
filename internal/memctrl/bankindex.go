package memctrl

import (
	"ropsim/internal/addr"
	"ropsim/internal/event"
)

// maxIndexBanks bounds banks per rank: each rank's occupancy mask is one
// uint64.
const maxIndexBanks = 64

// bankIndex maintains per-(rank, bank) views of one transaction
// queue's pending requests, each list in age (seq) order. It replaces
// the full-queue rescans of the original FR-FCFS loop: the scheduler
// visits only banks that actually have work (walking each rank's
// occupancy mask), finds the oldest row hit of a bank in one step, and
// the refresh machine's queue-emptiness probes (hasDemandReads and
// friends) become O(1) mask reads. The index mirrors its queue
// exactly; every mutation of readQ/writeQ/fillQ goes through
// pushRequest, removeReq or filterQueue, and every index mutation bumps
// ver.
type bankIndex struct {
	banks int          // banks per rank (list stride)
	lists [][]*request // rank*banks+bank → pending requests, oldest first
	occ   []uint64     // per rank: bit b set when bank b's list is non-empty

	write  bool // the queue holds writes (column command WR, not RD)
	demand bool // demand traffic, subject to refresh blocking (not fills)

	// ver counts index mutations; plan is the queue's last scheduling
	// sweep, current while ver and the controller's devVer still match
	// the sweep's (see Controller.plan).
	ver  uint64
	plan queuePlan
}

// queuePlan is the result of one scheduling sweep over a queue (see
// Controller.queueWake): the earliest cycle at or after from at which
// one of its requests can issue a command, and which request FR-FCFS
// serves then.
type queuePlan struct {
	at   event.Cycle // cycleNever when no request can issue
	req  *request
	hit  bool // req's command is a column access, not PRE/ACT
	from event.Cycle
	// ver and devVer are the queue and device versions of the sweep.
	ver, devVer uint64
}

// offer folds one candidate into the plan under issueFrom's priority:
// earliest cycle, then row hits before bank preparations, then oldest.
func (p *queuePlan) offer(at event.Cycle, req *request, hit bool) {
	if at < p.at || at == p.at && (hit && !p.hit || hit == p.hit && req.seq < p.req.seq) {
		p.at, p.req, p.hit = at, req, hit
	}
}

// init sizes the index for the channel geometry.
func (ix *bankIndex) init(geo addr.Geometry, write, demand bool) {
	ix.banks = geo.Banks
	ix.lists = make([][]*request, geo.Ranks*geo.Banks)
	ix.occ = make([]uint64, geo.Ranks)
	ix.write, ix.demand = write, demand
}

// add appends req to its bank's list. Callers add requests in seq
// order, so lists stay age-sorted.
func (ix *bankIndex) add(req *request) {
	r, b := req.loc.Rank, req.loc.Bank
	i := r*ix.banks + b
	ix.lists[i] = append(ix.lists[i], req)
	ix.occ[r] |= 1 << uint(b)
	ix.ver++
}

// remove deletes req from its bank's list (no-op if absent).
func (ix *bankIndex) remove(req *request) {
	r, b := req.loc.Rank, req.loc.Bank
	i := r*ix.banks + b
	l := ix.lists[i]
	for j, x := range l {
		if x == req {
			copy(l[j:], l[j+1:])
			l[len(l)-1] = nil
			ix.lists[i] = l[:len(l)-1]
			if len(l) == 1 {
				ix.occ[r] &^= 1 << uint(b)
			}
			ix.ver++
			return
		}
	}
}

// list returns the bank's pending requests, oldest first. Callers must
// not mutate it.
func (ix *bankIndex) list(rank, bank int) []*request {
	return ix.lists[rank*ix.banks+bank]
}

// has reports whether the bank has any pending request.
func (ix *bankIndex) has(rank, bank int) bool {
	return ix.occ[rank]>>uint(bank)&1 != 0
}

// rebuild resynchronizes the index from the queue after a bulk filter
// (filterQueue).
func (ix *bankIndex) rebuild(queue []*request) {
	for i := range ix.lists {
		l := ix.lists[i]
		for j := range l {
			l[j] = nil
		}
		ix.lists[i] = l[:0]
	}
	for i := range ix.occ {
		ix.occ[i] = 0
	}
	for _, req := range queue {
		ix.add(req)
	}
	ix.ver++
}
