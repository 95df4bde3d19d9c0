package memctrl

import "ropsim/internal/addr"

// bankIndex maintains per-(rank, bank) views of one transaction
// queue's pending requests, each list in age (seq) order. It replaces
// the full-queue rescans of the original FR-FCFS loop: the scheduler
// visits only banks that actually have work, finds the oldest row hit
// of a bank in one step, and the refresh machine's queue-emptiness
// probes (hasDemandReads and friends) become O(1) counter reads. The
// index mirrors its queue exactly; every mutation of readQ/writeQ/fillQ
// goes through pushRequest, removeReq or filterQueue.
type bankIndex struct {
	banks int          // banks per rank (list stride)
	lists [][]*request // rank*banks+bank → pending requests, oldest first
	rankN []int        // live requests per rank
}

// init sizes the index for the channel geometry.
func (ix *bankIndex) init(geo addr.Geometry) {
	ix.banks = geo.Banks
	ix.lists = make([][]*request, geo.Ranks*geo.Banks)
	ix.rankN = make([]int, geo.Ranks)
}

// add appends req to its bank's list. Callers add requests in seq
// order, so lists stay age-sorted.
func (ix *bankIndex) add(req *request) {
	i := req.loc.Rank*ix.banks + req.loc.Bank
	ix.lists[i] = append(ix.lists[i], req)
	ix.rankN[req.loc.Rank]++
}

// remove deletes req from its bank's list (no-op if absent).
func (ix *bankIndex) remove(req *request) {
	i := req.loc.Rank*ix.banks + req.loc.Bank
	l := ix.lists[i]
	for j, r := range l {
		if r == req {
			copy(l[j:], l[j+1:])
			l[len(l)-1] = nil
			ix.lists[i] = l[:len(l)-1]
			ix.rankN[req.loc.Rank]--
			return
		}
	}
}

// list returns the bank's pending requests, oldest first. Callers must
// not mutate it.
func (ix *bankIndex) list(rank, bank int) []*request {
	return ix.lists[rank*ix.banks+bank]
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
	for i := range ix.rankN {
		ix.rankN[i] = 0
	}
	for _, req := range queue {
		ix.add(req)
	}
}
