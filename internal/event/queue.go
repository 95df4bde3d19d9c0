package event

import (
	"container/heap"
	"math/bits"
)

// The queue is the simulator's per-event hot path: every DRAM command,
// controller wake and core step passes through Schedule and Step. Two
// properties dominate its design:
//
//  1. Dispatch order must be deterministic: events fire in (time,
//     insertion-order) order, independent of internal layout, so
//     simulations are bit-reproducible (the serial-vs-parallel
//     equivalence tests depend on this).
//  2. Steady-state dispatch must be allocation-free and avoid O(log n)
//     pointer-chasing: a run dispatches hundreds of events per
//     simulated microsecond.
//
// The implementation is a hybrid calendar queue: events within
// bucketWindow cycles of the current time land in a ring of per-cycle
// buckets (O(1) insert, O(1) amortized dispatch); events farther out —
// refresh cadences at tREFI, long controller sleeps — go to a binary
// min-heap. Dispatch merges the two sources by (time, seq). Fired and
// cancelled events return to a free list, so steady-state scheduling
// performs no heap allocation. docs/PERFORMANCE.md describes the
// design and its benchmarks.

// bucketWindow is the calendar horizon in cycles: events scheduled
// within this many cycles of now use the O(1) bucket ring, farther ones
// the overflow heap. 1024 covers every DDR4 timing constraint (tRFC =
// 280 cycles at 1x) and the controller's wake distances; only refresh
// cadence events (tREFI = 6240) and idle sleeps overflow. Must be a
// power of two.
const bucketWindow = 1024

const bucketMask = bucketWindow - 1

// event is one scheduled callback. Instances are pooled: after dispatch
// or cancellation the object is recycled, its generation bumped so
// stale Handles cannot touch the reincarnation.
type event struct {
	at  Cycle
	fn  func(now Cycle) // nil marks a cancelled (or recycled) event
	seq int64           // global insertion order, ties broken FIFO
	gen uint64          // incarnation counter for Handle validity
	far bool            // true when parked in the overflow heap
}

// Handle identifies one scheduled event for cancellation. The zero
// Handle is valid and refers to nothing.
type Handle struct {
	ev  *event
	gen uint64
}

// slot is one calendar bucket: the events of a single cycle, in
// insertion (seq) order. head indexes the first undispatched event so
// dispatch never shifts the slice.
type slot struct {
	evs  []*event
	head int
}

// farHeap is the overflow min-heap, ordered by (at, seq). It only sees
// events scheduled more than bucketWindow cycles out, so its O(log n)
// cost is off the steady-state path.
type farHeap []*event

func (h farHeap) Len() int { return len(h) }

func (h farHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h farHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *farHeap) Push(x any) { *h = append(*h, x.(*event)) }

// Pop implements heap.Interface.
func (h *farHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// chained is a chained wake (see Queue.ScheduleChained): an event that
// dispatches at cycle at, but whose order within that cycle is that of
// an event re-scheduled at every cycle between its arm time and at —
// the position a per-cycle polling chain would occupy. Its seq is
// lazily refreshed to the current insertion counter once per
// event-bearing cycle it virtually passes through.
type chained struct {
	at       Cycle
	seq      int64
	id       int64 // ChainHandle identity (survives slice reshuffles)
	lastPass Cycle // latest cycle whose virtual pass already refreshed seq
	fn       func(now Cycle)
}

// ChainHandle identifies one chained wake for retargeting. The zero
// ChainHandle is valid and refers to nothing.
type ChainHandle struct {
	id int64
}

// Queue is a deterministic discrete-event queue. The zero value is
// ready to use. Events scheduled for the same cycle fire in insertion
// order regardless of internal layout.
type Queue struct {
	slots [bucketWindow]slot        // calendar ring, indexed by at & bucketMask
	occ   [bucketWindow / 64]uint64 // occupancy bitmap over slots
	far   farHeap                   // events beyond the calendar horizon
	pool  []*event                  // free list of recycled events
	seq   int64                     // insertion-order counter
	now   Cycle                     // time of the last dispatched event
	live  int                       // scheduled, non-cancelled events
	// nearFrom is a lower bound on the earliest cycle that may hold a
	// live bucketed event; it keeps repeated head scans amortized O(1).
	nearFrom Cycle
	nearLive int       // live events currently in buckets
	chains   []chained // chained wakes, unordered (few at a time)
	chainID  int64     // ChainHandle id counter
}

// Now reports the time of the most recently dispatched event.
func (q *Queue) Now() Cycle { return q.now }

// Len reports the number of pending (non-cancelled) events.
func (q *Queue) Len() int { return q.live }

// get returns a fresh event object, reusing the free list when
// possible.
func (q *Queue) get() *event {
	if n := len(q.pool); n > 0 {
		e := q.pool[n-1]
		q.pool[n-1] = nil
		q.pool = q.pool[:n-1]
		return e
	}
	return &event{}
}

// recycle invalidates e's handles and returns it to the free list.
func (q *Queue) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.far = false
	q.pool = append(q.pool, e)
}

// Schedule enqueues fn to run at cycle at and returns a Handle that can
// cancel it. Scheduling in the past (before the currently dispatching
// event) panics: it would silently reorder time and corrupt the
// simulation. fn must be non-nil.
func (q *Queue) Schedule(at Cycle, fn func(now Cycle)) Handle {
	if at < q.now {
		panic("event: scheduling into the past")
	}
	if fn == nil {
		panic("event: scheduling a nil callback")
	}
	q.seq++
	e := q.get()
	e.at, e.fn, e.seq = at, fn, q.seq
	q.live++
	if at < q.now+bucketWindow {
		idx := int(at) & bucketMask
		q.slots[idx].evs = append(q.slots[idx].evs, e)
		q.occ[idx>>6] |= 1 << uint(idx&63)
		if q.nearLive == 0 || at < q.nearFrom {
			q.nearFrom = at
		}
		q.nearLive++
	} else {
		e.far = true
		heap.Push(&q.far, e)
	}
	return Handle{ev: e, gen: e.gen}
}

// ScheduleChained enqueues fn to run at cycle at, ordered within that
// cycle as though the event had been re-scheduled once per cycle from
// now until at — the queue position a tick-per-cycle polling chain
// would occupy — rather than keeping its arm-time insertion order.
// Callers that replace per-cycle polling with a computed sleep use this
// to keep dispatch order bit-identical to the polling loop they
// replaced (see internal/memctrl's wake discipline): events scheduled
// during the sleep interval run before the wake, exactly as they would
// have run before that cycle's polling tick. Chained wakes cannot be
// cancelled; schedule a fresh one and ignore the stale callback
// instead. Scheduling in the past panics, as with Schedule. The
// returned handle allows RetargetChained to pull the wake forward.
func (q *Queue) ScheduleChained(at Cycle, fn func(now Cycle)) ChainHandle {
	if at < q.now {
		panic("event: scheduling into the past")
	}
	if fn == nil {
		panic("event: scheduling a nil callback")
	}
	q.seq++
	q.chainID++
	q.chains = append(q.chains, chained{at: at, seq: q.seq, id: q.chainID, lastPass: q.now, fn: fn})
	q.live++
	return ChainHandle{id: q.chainID}
}

// RetargetChained moves a pending chained wake to fire at the earlier
// cycle at, keeping its current virtual queue position (its seq is not
// re-assigned). This is how a sleeping polling chain reacts to new
// work arriving mid-sleep: the chain's tick for the current cycle is
// already "queued" at its per-cycle position, so the wake fires now
// rather than at the original target, ordered exactly where that tick
// would have been. It reports whether the handle still referred to a
// pending chained wake. Retargeting into the past or later than the
// current target panics.
func (q *Queue) RetargetChained(h ChainHandle, at Cycle) bool {
	for i := range q.chains {
		if q.chains[i].id != h.id {
			continue
		}
		if at < q.now || at > q.chains[i].at {
			panic("event: retargeting a chained wake backward in priority or into the past")
		}
		q.chains[i].at = at
		return true
	}
	return false
}

// ChainPassed reports whether the pending chained wake h has already
// virtually passed the current cycle: an event younger than the chain's
// position dispatched at this cycle, so the tick of the per-cycle
// polling chain it stands for has fired here and re-armed for the next
// cycle. It reports false for a handle that no longer refers to a
// pending chained wake.
func (q *Queue) ChainPassed(h ChainHandle) bool {
	for i := range q.chains {
		if q.chains[i].id == h.id {
			return q.chains[i].lastPass == q.now
		}
	}
	return false
}

// Cancel revokes a scheduled event: its callback will never run. It
// reports whether the handle still referred to a pending event (false
// when already fired, already cancelled, or zero). Cancellation is O(1);
// the slot is reclaimed lazily during dispatch.
func (q *Queue) Cancel(h Handle) bool {
	e := h.ev
	if e == nil || e.gen != h.gen || e.fn == nil {
		return false
	}
	e.fn = nil
	q.live--
	if !e.far {
		q.nearLive--
	}
	return true
}

// nextSetSlot returns the first occupied slot index at or after idx in
// ring order, scanning at most one full revolution. ok is false when
// the bitmap is empty.
func (q *Queue) nextSetSlot(idx int) (int, bool) {
	word := idx >> 6
	off := uint(idx & 63)
	// First (partial) word.
	if w := q.occ[word] >> off << off; w != 0 {
		return word<<6 + bits.TrailingZeros64(w), true
	}
	for i := 1; i <= len(q.occ); i++ {
		w := (word + i) % len(q.occ)
		if q.occ[w] != 0 {
			return w<<6 + bits.TrailingZeros64(q.occ[w]), true
		}
	}
	return 0, false
}

// nearHead returns the earliest live bucketed event without removing
// it, compacting cancelled events and stale occupancy bits as it scans.
func (q *Queue) nearHead() *event {
	if q.nearLive == 0 {
		return nil
	}
	from := q.nearFrom
	if from < q.now {
		from = q.now
	}
	for scanned := Cycle(0); scanned < bucketWindow; {
		idx, ok := q.nextSetSlot(int(from) & bucketMask)
		if !ok {
			break
		}
		// Convert the slot index back to the cycle ≥ from it represents.
		c := from + Cycle((idx-int(from))&bucketMask)
		s := &q.slots[int(c)&bucketMask]
		// Drop cancelled events from the head.
		for s.head < len(s.evs) && s.evs[s.head].fn == nil {
			q.recycle(s.evs[s.head])
			s.evs[s.head] = nil
			s.head++
		}
		if s.head < len(s.evs) {
			q.nearFrom = s.evs[s.head].at
			return s.evs[s.head]
		}
		s.evs = s.evs[:0]
		s.head = 0
		slotIdx := int(c) & bucketMask
		q.occ[slotIdx>>6] &^= 1 << uint(slotIdx&63)
		scanned += Cycle((idx-int(from))&bucketMask) + 1
		from = c + 1
	}
	q.nearFrom = q.now + bucketWindow
	return nil
}

// farHead returns the earliest live overflow event without removing it,
// discarding cancelled heads.
func (q *Queue) farHead() *event {
	for len(q.far) > 0 {
		if q.far[0].fn != nil {
			return q.far[0]
		}
		q.recycle(heap.Pop(&q.far).(*event))
	}
	return nil
}

// head returns the next event to dispatch (merging calendar and
// overflow sources by time then insertion order) or nil when empty.
func (q *Queue) head() *event {
	ne, fe := q.nearHead(), q.farHead()
	switch {
	case ne == nil:
		return fe
	case fe == nil:
		return ne
	case fe.at < ne.at || (fe.at == ne.at && fe.seq < ne.seq):
		return fe
	default:
		return ne
	}
}

// PeekTime returns the time of the next pending event (regular or
// chained). ok is false when the queue is empty.
func (q *Queue) PeekTime() (at Cycle, ok bool) {
	if e := q.head(); e != nil {
		at, ok = e.at, true
	}
	for i := range q.chains {
		if !ok || q.chains[i].at < at {
			at, ok = q.chains[i].at, true
		}
	}
	return at, ok
}

// Step dispatches the single earliest pending event. It reports false
// when the queue is empty.
func (q *Queue) Step() bool {
	e := q.head()
	if len(q.chains) != 0 {
		return q.stepChained(e)
	}
	if e == nil {
		return false
	}
	q.pop(e)
	q.live--
	q.now = e.at
	at, fn := e.at, e.fn
	q.recycle(e)
	fn(at)
	return true
}

// pop removes e — which must be the current head — from its container.
func (q *Queue) pop(e *event) {
	if e.far {
		heap.Pop(&q.far)
	} else {
		s := &q.slots[int(e.at)&bucketMask]
		s.evs[s.head] = nil
		s.head++
		q.nearLive--
	}
}

// stepChained dispatches the earliest of the regular head e (may be
// nil) and the pending chained wakes, maintaining each chain's virtual
// queue position — the position of the per-cycle re-scheduling chain
// it stands for — with two lazy refreshes of its seq to the current
// insertion counter:
//
//   - an advance lift when the clock moves to a new cycle t: the chain
//     re-armed at the end of every cycle it slept through, so its seq
//     rises above everything scheduled before cycle t began (all those
//     per-cycle re-arms collapse into one refresh, applied only if a
//     mid-cycle pass has not already covered the last cycle);
//   - a mid-cycle pass when the first dispatch at t with a younger seq
//     overtakes the chain: the chain's tick for cycle t fired at its
//     queued position before that dispatch, so its re-arm seq slots in
//     just there.
//
// The mid-cycle pass applies to multiple chains in ascending stale-seq
// order (their tick order within the cycle); the advance lift orders by
// descending lastPass first (see the comment at the lift loop). Each
// refresh applies at most once per chain per cycle.
func (q *Queue) stepChained(e *event) bool {
	// The dispatch cycle is the minimum at; seq ties are broken only
	// after the lifts below settle the chains' positions.
	var t Cycle
	haveT := e != nil
	if haveT {
		t = e.at
	}
	for i := range q.chains {
		if !haveT || q.chains[i].at < t {
			t, haveT = q.chains[i].at, true
		}
	}
	if t > q.now {
		// Every pending chain has at >= t, so all lift to the same
		// boundary: their positions for the tick at cycle t. A chain
		// refreshed more recently (larger lastPass) armed or re-armed
		// later within its cycle, so its virtual re-arms START later:
		// chains with older lastPass values re-arm through the cycles in
		// between and end up above it. Final order is therefore
		// descending lastPass, ties broken by current (stale) seq, which
		// is the tick order chains with a shared history preserve.
		p := t - 1
		for {
			pick := -1
			for i := range q.chains {
				ch := &q.chains[i]
				if ch.lastPass >= p {
					continue
				}
				if pick < 0 {
					pick = i
					continue
				}
				pk := &q.chains[pick]
				if ch.lastPass > pk.lastPass ||
					(ch.lastPass == pk.lastPass && ch.seq < pk.seq) {
					pick = i
				}
			}
			if pick < 0 {
				break
			}
			q.seq++
			q.chains[pick].seq = q.seq
			q.chains[pick].lastPass = p
		}
	}
	best := 0
	for i := 1; i < len(q.chains); i++ {
		ch, b := &q.chains[i], &q.chains[best]
		if ch.at < b.at || (ch.at == b.at && ch.seq < b.seq) {
			best = i
		}
	}
	var s int64
	useChain := e == nil
	if !useChain {
		s = e.seq
		if bc := &q.chains[best]; bc.at < e.at || (bc.at == e.at && bc.seq < s) {
			useChain = true
		}
	}
	if useChain {
		s = q.chains[best].seq
	}
	for {
		pick := -1
		for i := range q.chains {
			ch := &q.chains[i]
			if t < ch.at && t > ch.lastPass && s > ch.seq &&
				(pick < 0 || ch.seq < q.chains[pick].seq) {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		q.seq++
		q.chains[pick].seq = q.seq
		q.chains[pick].lastPass = t
	}
	q.live--
	q.now = t
	if useChain {
		fn := q.chains[best].fn
		q.chains[best] = q.chains[len(q.chains)-1]
		q.chains = q.chains[:len(q.chains)-1]
		fn(t)
		return true
	}
	q.pop(e)
	at, fn := e.at, e.fn
	q.recycle(e)
	fn(at)
	return true
}

// RunUntil dispatches events in order until the queue is empty or the
// next event lies strictly beyond limit. It returns the number of events
// dispatched.
func (q *Queue) RunUntil(limit Cycle) int {
	n := 0
	for {
		at, ok := q.PeekTime()
		if !ok || at > limit {
			return n
		}
		q.Step()
		n++
	}
}

// Run dispatches events until the queue is empty or maxEvents have been
// dispatched (a safety net against runaway self-scheduling). It returns
// the number dispatched.
func (q *Queue) Run(maxEvents int) int {
	n := 0
	for n < maxEvents && q.Step() {
		n++
	}
	return n
}
