package event

import (
	"container/heap"
	"math/rand"
	"testing"
)

// This file checks the calendar queue against the simulator's previous
// event queue — a plain binary heap ordered by (time, insertion seq) —
// kept here as a test oracle. Any schedule/cancel/dispatch interleaving
// must produce the identical dispatch order on both implementations.

// oracleEvent is one entry of the reference heap.
type oracleEvent struct {
	at        Cycle
	seq       int64
	id        int
	cancelled bool
}

// heapOracle is the pre-calendar-queue implementation: a binary
// min-heap by (at, seq). It is deliberately simple and obviously
// correct; the property tests compare the optimized queue against it.
type heapOracle struct {
	evs []*oracleEvent
	seq int64
	now Cycle
}

func (h *heapOracle) Len() int { return len(h.evs) }

func (h *heapOracle) Less(i, j int) bool {
	if h.evs[i].at != h.evs[j].at {
		return h.evs[i].at < h.evs[j].at
	}
	return h.evs[i].seq < h.evs[j].seq
}

func (h *heapOracle) Swap(i, j int) { h.evs[i], h.evs[j] = h.evs[j], h.evs[i] }

// Push implements heap.Interface.
func (h *heapOracle) Push(x any) { h.evs = append(h.evs, x.(*oracleEvent)) }

// Pop implements heap.Interface.
func (h *heapOracle) Pop() any {
	old := h.evs
	n := len(old)
	e := old[n-1]
	h.evs = old[:n-1]
	return e
}

func (h *heapOracle) schedule(at Cycle, id int) *oracleEvent {
	h.seq++
	e := &oracleEvent{at: at, seq: h.seq, id: id}
	heap.Push(h, e)
	return e
}

// step pops the earliest live event, returning its id, or -1 when
// empty.
func (h *heapOracle) step() int {
	for len(h.evs) > 0 {
		e := heap.Pop(h).(*oracleEvent)
		if e.cancelled {
			continue
		}
		h.now = e.at
		return e.id
	}
	return -1
}

// mirror drives the optimized Queue and the heap oracle with the same
// operation stream and compares their dispatch orders event by event.
type mirror struct {
	t      *testing.T
	q      *Queue
	o      heapOracle
	nextID int
	fired  []int // ids dispatched by the optimized queue

	handles  []Handle       // live handles of the optimized queue
	oHandles []*oracleEvent // the same events in the oracle
}

// schedule mirrors one Schedule call into both queues. Children of
// dispatching callbacks route through here too, so callback-scheduled
// events get identical seq numbering on both sides.
func (m *mirror) schedule(at Cycle, child func(now Cycle)) {
	id := m.nextID
	m.nextID++
	h := m.q.Schedule(at, func(now Cycle) {
		m.fired = append(m.fired, id)
		if child != nil {
			child(now)
		}
	})
	m.handles = append(m.handles, h)
	m.oHandles = append(m.oHandles, m.o.schedule(at, id))
}

// cancel mirrors a Cancel of the i-th scheduled event into both queues
// and checks that the optimized queue's report matches the oracle's
// liveness.
func (m *mirror) cancel(i int) {
	oe := m.oHandles[i]
	wantLive := !oe.cancelled && oe.at > m.o.now // heuristic; checked below
	got := m.q.Cancel(m.handles[i])
	// The oracle cannot cheaply distinguish "already fired" from
	// "pending at now"; cross-check only the definite cases.
	if oe.cancelled && got {
		m.t.Fatalf("Cancel of already-cancelled event %d reported true", i)
	}
	_ = wantLive
	if got {
		oe.cancelled = true
	}
}

// drain dispatches n events from both queues in lockstep and compares
// ids.
func (m *mirror) drain(n int) {
	for i := 0; i < n; i++ {
		before := len(m.fired)
		if !m.q.Step() {
			if id := m.o.step(); id != -1 {
				m.t.Fatalf("queue empty but oracle still holds id %d", id)
			}
			return
		}
		if len(m.fired) != before+1 {
			m.t.Fatalf("Step dispatched %d callbacks, want exactly 1", len(m.fired)-before)
		}
		got := m.fired[len(m.fired)-1]
		want := m.o.step()
		if got != want {
			m.t.Fatalf("dispatch order diverged: queue fired id %d, oracle id %d (position %d)",
				got, want, len(m.fired)-1)
		}
	}
}

// runMirror executes one randomized schedule/cancel/dispatch scenario.
// Offsets mix near events (inside the calendar window) and far events
// (overflow heap, tREFI-scale), plus same-cycle ties and
// callback-scheduled children.
func runMirror(t *testing.T, seed int64, ops int) {
	runMirrorOn(t, new(Queue), seed, ops)
}

// runMirrorOn is runMirror on a given queue, which must be empty and
// at cycle 0 (fresh or Reset).
func runMirrorOn(t *testing.T, q *Queue, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	m := &mirror{t: t, q: q}
	offset := func() Cycle {
		switch rng.Intn(4) {
		case 0:
			return Cycle(rng.Intn(4)) // same-cycle ties
		case 1:
			return Cycle(rng.Intn(bucketWindow)) // calendar ring
		case 2:
			return bucketWindow + Cycle(rng.Intn(bucketWindow)) // boundary
		default:
			return Cycle(rng.Intn(20000)) // far heap (tREFI-scale)
		}
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			at := m.q.Now() + offset()
			var child func(now Cycle)
			if rng.Intn(3) == 0 {
				delta := offset()
				child = func(now Cycle) { m.schedule(now+delta, nil) }
			}
			m.schedule(at, child)
		case 5:
			if len(m.handles) > 0 {
				m.cancel(rng.Intn(len(m.handles)))
			}
		default:
			m.drain(rng.Intn(5))
		}
	}
	m.drain(1 << 20) // drain everything
	if m.q.Len() != 0 {
		t.Fatalf("queue reports %d pending after full drain", m.q.Len())
	}
}

// TestQueueMatchesHeapOracle is the property test required by the
// calendar-queue rewrite: random schedule/cancel sequences must
// dispatch in the identical order as the old binary heap.
func TestQueueMatchesHeapOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		runMirror(t, seed, 400)
	}
}

// TestQueueMatchesHeapOracleLong stresses larger scenarios (skipped in
// -short).
func TestQueueMatchesHeapOracleLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long oracle comparison")
	}
	for seed := int64(100); seed < 110; seed++ {
		runMirror(t, seed, 5000)
	}
}

// TestResetQueueMatchesHeapOracle reuses one queue across scenarios.
// Each time, it abandons the queue with near, far, cancelled and
// chained events pending, resets it, and requires the next scenario to
// dispatch exactly like the heap oracle, as on a fresh queue. No
// callback from before a reset may run after it.
func TestResetQueueMatchesHeapOracle(t *testing.T) {
	q := new(Queue)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reset := false
		stale := func(Cycle) {
			if reset {
				t.Fatal("a callback scheduled before Reset ran after it")
			}
		}
		for i := 0; i < 200; i++ {
			h := q.Schedule(q.Now()+Cycle(rng.Intn(3*bucketWindow)), stale)
			switch rng.Intn(4) {
			case 0:
				q.Cancel(h)
			case 1:
				q.Step()
			}
		}
		q.ScheduleChained(q.Now()+Cycle(rng.Intn(100)), stale)
		q.Reset()
		reset = true
		if _, ok := q.PeekTime(); ok || q.Len() != 0 || q.Now() != 0 {
			t.Fatalf("seed %d: after Reset Len = %d, Now = %d, PeekTime ok = %v", seed, q.Len(), q.Now(), ok)
		}
		runMirrorOn(t, q, seed, 400)
	}
}

// TestResetKeepsStorage checks that a reset queue keeps its free list
// and slice capacities: replaying the same schedule after a Reset
// allocates nothing.
func TestResetKeepsStorage(t *testing.T) {
	var q Queue
	nop := func(Cycle) {}
	fill := func() {
		for i := 0; i < 64; i++ {
			q.Schedule(Cycle(i%8), nop)
			q.Schedule(Cycle(5000+i), nop)
		}
		q.ScheduleChained(3, nop)
		for q.Len() > 32 {
			q.Step()
		}
		q.Reset()
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("a schedule replayed after Reset made %v allocations, want 0", allocs)
	}
}

// FuzzQueueOrdering feeds arbitrary operation streams to the queue and
// the heap oracle and requires identical dispatch order. Each input
// byte pair encodes one operation: schedule at an offset, cancel, or
// dispatch.
func FuzzQueueOrdering(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x20, 0xff, 0x03})
	f.Add([]byte{0x50, 0x00, 0x50, 0x00, 0xf0, 0x02, 0xf1, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &mirror{t: t, q: new(Queue)}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch {
			case op < 0xd0:
				// Schedule: the two bytes pick an offset covering the
				// calendar ring, its boundary, and the far heap.
				at := m.q.Now() + Cycle(op)*Cycle(arg)
				m.schedule(at, nil)
			case op < 0xf0:
				if len(m.handles) > 0 {
					m.cancel(int(arg) % len(m.handles))
				}
			default:
				m.drain(int(arg) % 8)
			}
		}
		m.drain(1 << 20)
	})
}

// TestCancelSemantics pins the Cancel contract: true exactly once for a
// pending event, false for fired, double-cancelled, and zero handles,
// and a cancelled callback never runs.
func TestCancelSemantics(t *testing.T) {
	var q Queue
	ran := false
	h := q.Schedule(10, func(Cycle) { ran = true })
	if !q.Cancel(h) {
		t.Fatal("Cancel of pending event reported false")
	}
	if q.Cancel(h) {
		t.Fatal("second Cancel reported true")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cancelling the only event", q.Len())
	}
	q.Schedule(20, func(Cycle) {})
	q.Run(10)
	if ran {
		t.Fatal("cancelled callback ran")
	}

	fired := q.Schedule(30, func(Cycle) {})
	q.Run(10)
	if q.Cancel(fired) {
		t.Fatal("Cancel of fired event reported true")
	}
	if q.Cancel(Handle{}) {
		t.Fatal("Cancel of zero Handle reported true")
	}
}

// TestPoolReuseHandleSafety verifies the generation counters on pooled
// events: a stale handle to a fired or cancelled event must never
// cancel the recycled object's next incarnation.
func TestPoolReuseHandleSafety(t *testing.T) {
	var q Queue
	stale := q.Schedule(1, func(Cycle) {})
	q.Step() // fires; the event object returns to the pool
	ran := 0
	q.Schedule(2, func(Cycle) { ran++ }) // reuses the pooled object
	if q.Cancel(stale) {
		t.Fatal("stale handle cancelled a recycled event")
	}
	q.Run(10)
	if ran != 1 {
		t.Fatalf("recycled event ran %d times, want 1", ran)
	}

	// Same via the cancel path: cancelled events recycle too (lazily).
	h1 := q.Schedule(q.Now()+1, func(Cycle) { t.Fatal("cancelled callback ran") })
	q.Cancel(h1)
	q.Schedule(q.Now()+2, func(Cycle) { ran++ })
	q.Run(10)
	if ran != 2 {
		t.Fatalf("post-cancel schedule ran %d times, want 2", ran)
	}
	if q.Cancel(h1) {
		t.Fatal("cancelled handle cancelled again after recycling")
	}
}

// TestPoolReuseUnderChurn drives heavy schedule/fire/cancel churn so
// the free list recycles constantly, and checks counts; run under
// -race in CI to catch any unsynchronized reuse.
func TestPoolReuseUnderChurn(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewSource(11))
	fired, cancelled, kept := 0, 0, 0
	var pending []Handle
	for i := 0; i < 20000; i++ {
		h := q.Schedule(q.Now()+Cycle(rng.Intn(300)), func(Cycle) { fired++ })
		pending = append(pending, h)
		if rng.Intn(3) == 0 && len(pending) > 0 {
			j := rng.Intn(len(pending))
			if q.Cancel(pending[j]) {
				cancelled++
			}
			pending = append(pending[:j], pending[j+1:]...)
		}
		if rng.Intn(4) == 0 {
			for k := 0; k < rng.Intn(4); k++ {
				if q.Step() {
					kept++
				}
			}
		}
	}
	for q.Step() {
		kept++
	}
	if fired != kept {
		t.Fatalf("callback count %d != dispatch count %d", fired, kept)
	}
	if fired+cancelled != 20000 {
		t.Fatalf("fired %d + cancelled %d != scheduled 20000", fired, cancelled)
	}
}
