package event

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file checks ScheduleChained against its defining model: a
// literal per-cycle polling chain — an event that re-schedules itself
// at now+1 every cycle until its target, then runs the payload. The
// chained wake must dispatch its payload at the same cycle and at the
// same position within that cycle (relative to every other event) as
// the literal chain, for any interleaving of schedules, retargets, and
// chain re-arms. This is the property the memctrl wake discipline
// relies on for bit-identical command streams.

// chainLabelBase offsets chain payload labels away from regular event
// ids in the dispatch streams.
const chainLabelBase = 1 << 20

// litChain is the reference implementation: a self-rescheduling
// per-cycle tick. Arm it by scheduling step at now+1; it no-op ticks
// every cycle until target, where it runs fire instead.
type litChain struct {
	q      *Queue
	target Cycle
	fired  bool
	fire   func(now Cycle)
}

func (c *litChain) step(now Cycle) {
	if now >= c.target {
		c.fired = true
		c.fire(now)
		return
	}
	c.q.Schedule(now+1, c.step)
}

// chainMirror drives the optimized queue (a, using ScheduleChained)
// and the reference queue (b, using litChain) with the same labelled
// operation stream and compares the label sequences and their cycles.
// The reference queue's no-op ticks produce no labels, so comparison
// is per label, not per Step.
type chainMirror struct {
	t      *testing.T
	a, b   Queue
	la, lb []int   // dispatched labels
	ca, cb []Cycle // cycle of each label
	nextID int

	handles []ChainHandle // chain idx -> optimized handle
	lits    []*litChain   // chain idx -> reference chain (nil until armed)
}

// schedule mirrors one regular labelled event into both queues,
// optionally scheduling a labelled child from its callback.
func (m *chainMirror) schedule(at Cycle, childDelta Cycle, hasChild bool) {
	id := m.nextID
	m.nextID++
	childID := -1
	if hasChild {
		childID = m.nextID
		m.nextID++
	}
	mk := func(q *Queue, labels *[]int, cycles *[]Cycle) {
		q.Schedule(at, func(now Cycle) {
			*labels = append(*labels, id)
			*cycles = append(*cycles, now)
			if hasChild {
				q.Schedule(now+childDelta, func(n Cycle) {
					*labels = append(*labels, childID)
					*cycles = append(*cycles, n)
				})
			}
		})
	}
	mk(&m.a, &m.la, &m.ca)
	mk(&m.b, &m.lb, &m.cb)
}

// armChain arms chain idx at target on both queues. rearm >= 0
// reserves a second chain index that the payload arms at now+rearmDelta
// when it fires — the controller's tick-arms-next-tick pattern.
func (m *chainMirror) armChain(idx int, target Cycle, rearm int, rearmDelta Cycle) {
	m.armChainA(idx, target, rearm, rearmDelta)
	m.armChainB(idx, target, rearm, rearmDelta)
}

func (m *chainMirror) armChainA(idx int, target Cycle, rearm int, rearmDelta Cycle) {
	m.handles[idx] = m.a.ScheduleChained(target, func(now Cycle) {
		m.la = append(m.la, chainLabelBase+idx)
		m.ca = append(m.ca, now)
		if rearm >= 0 {
			m.armChainA(rearm, now+rearmDelta, -1, 0)
		}
	})
}

func (m *chainMirror) armChainB(idx int, target Cycle, rearm int, rearmDelta Cycle) {
	lc := &litChain{q: &m.b, target: target}
	lc.fire = func(now Cycle) {
		m.lb = append(m.lb, chainLabelBase+idx)
		m.cb = append(m.cb, now)
		if rearm >= 0 {
			m.armChainB(rearm, now+rearmDelta, -1, 0)
		}
	}
	m.lits[idx] = lc
	m.b.Schedule(m.b.Now()+1, lc.step)
}

// newChainSlots reserves n chain indexes and returns the first.
func (m *chainMirror) newChainSlots(n int) int {
	idx := len(m.lits)
	for i := 0; i < n; i++ {
		m.lits = append(m.lits, nil)
		m.handles = append(m.handles, ChainHandle{})
	}
	return idx
}

// retarget pulls chain idx forward to at on both queues. Valid only
// for an armed, unfired chain with at in (now, target].
func (m *chainMirror) retarget(idx int, at Cycle) {
	if !m.a.RetargetChained(m.handles[idx], at) {
		m.t.Fatalf("RetargetChained(%d, %d) reported a dead handle for a live chain", idx, at)
	}
	m.lits[idx].target = at
}

// stepLabel dispatches until one label appears (skipping the reference
// queue's no-op ticks) or the queue drains.
func stepLabel(q *Queue, labels *[]int) bool {
	for {
		n := len(*labels)
		if !q.Step() {
			return false
		}
		if len(*labels) > n {
			return true
		}
	}
}

// drain dispatches up to n labels from both queues in lockstep and
// compares label identity and cycle.
func (m *chainMirror) drain(n int) {
	for i := 0; i < n; i++ {
		okA := stepLabel(&m.a, &m.la)
		okB := stepLabel(&m.b, &m.lb)
		if okA != okB {
			m.t.Fatalf("queue drained early: optimized=%v reference=%v after %d labels", okA, okB, len(m.la))
		}
		if !okA {
			return
		}
		p := len(m.la) - 1
		if m.la[p] != m.lb[p] || m.ca[p] != m.cb[p] {
			m.t.Fatalf("dispatch diverged at position %d: optimized label %d @%d, reference label %d @%d",
				p, m.la[p], m.ca[p], m.lb[p], m.cb[p])
		}
		if m.a.Now() != m.b.Now() {
			m.t.Fatalf("clocks diverged after label %d: optimized %d, reference %d", p, m.a.Now(), m.b.Now())
		}
	}
}

// runChainMirror executes one randomized scenario mixing regular
// events (with same-cycle ties, in-window and far offsets, and
// callback children), chain arms (some re-arming on fire), and valid
// retargets.
func runChainMirror(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	m := &chainMirror{t: t}
	off := func() Cycle {
		switch rng.Intn(4) {
		case 0:
			return Cycle(rng.Intn(4)) // same-cycle ties
		case 1:
			return Cycle(rng.Intn(64)) // short sleeps
		case 2:
			return Cycle(rng.Intn(bucketWindow * 2)) // window boundary
		default:
			return Cycle(rng.Intn(8000)) // tREFI-scale
		}
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			m.schedule(m.a.Now()+off(), off(), rng.Intn(3) == 0)
		case 4:
			if len(m.lits) < 32 {
				target := m.a.Now() + 1 + off()
				if rng.Intn(2) == 0 {
					idx := m.newChainSlots(2)
					m.armChain(idx, target, idx+1, 1+Cycle(rng.Intn(200)))
				} else {
					idx := m.newChainSlots(1)
					m.armChain(idx, target, -1, 0)
				}
			}
		case 5:
			// Retarget a random live chain to a strictly earlier cycle.
			now := m.a.Now()
			var cand []int
			for idx, lc := range m.lits {
				if lc != nil && !lc.fired && lc.target > now+1 {
					cand = append(cand, idx)
				}
			}
			if len(cand) > 0 {
				idx := cand[rng.Intn(len(cand))]
				span := int64(m.lits[idx].target - now - 1)
				m.retarget(idx, now+1+Cycle(rng.Int63n(span+1)))
			}
		default:
			m.drain(1 + rng.Intn(4))
		}
	}
	m.drain(1 << 20)
	if m.a.Len() != 0 || m.b.Len() != 0 {
		t.Fatalf("pending after full drain: optimized %d, reference %d", m.a.Len(), m.b.Len())
	}
	if len(m.la) != len(m.lb) {
		t.Fatalf("label counts diverged: optimized %d, reference %d", len(m.la), len(m.lb))
	}
}

// TestChainedMatchesLiteralChain is the property test for the chained
// wake: random scenarios must dispatch identically to literal
// per-cycle chains.
func TestChainedMatchesLiteralChain(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runChainMirror(t, seed, 300) })
	}
}

// TestChainedMatchesLiteralChainLong stresses larger scenarios
// (skipped in -short).
func TestChainedMatchesLiteralChainLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long chained-wake comparison")
	}
	for seed := int64(100); seed < 112; seed++ {
		runChainMirror(t, seed, 4000)
	}
}

// TestRetargetChainedToCurrentCycle pins the enqueue-mid-sleep case
// the controller depends on: a chain armed in an earlier cycle is
// retargeted to the retargeting event's own cycle and must fire in
// that same cycle, after the retargeting event — exactly where the
// literal chain's tick for that cycle (armed one cycle earlier, hence
// with a smaller seq than anything scheduled this cycle) would fire.
func TestRetargetChainedToCurrentCycle(t *testing.T) {
	var q Queue
	var order []string
	var chainAt Cycle
	var h ChainHandle
	q.Schedule(3, func(now Cycle) {
		order = append(order, "arm")
		h = q.ScheduleChained(20, func(n Cycle) {
			order = append(order, "chain")
			chainAt = n
		})
	})
	q.Schedule(5, func(now Cycle) {
		order = append(order, "enqueue")
		if !q.RetargetChained(h, now) {
			t.Fatal("retarget of live chain reported dead handle")
		}
	})
	q.Run(100)
	if want := []string{"arm", "enqueue", "chain"}; len(order) != 3 ||
		order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	if chainAt != 5 {
		t.Fatalf("retargeted chain fired at %d, want 5", chainAt)
	}
}

// TestRetargetChainedSemantics pins the contract edges: false for
// fired and zero handles, panic on retargeting later than the current
// target or into the past.
func TestRetargetChainedSemantics(t *testing.T) {
	var q Queue
	h := q.ScheduleChained(1, func(Cycle) {})
	if q.Len() != 1 {
		t.Fatalf("Len = %d after ScheduleChained, want 1", q.Len())
	}
	q.Step()
	if q.RetargetChained(h, 1) {
		t.Fatal("retarget of fired chain reported true")
	}
	if q.RetargetChained(ChainHandle{}, 1) {
		t.Fatal("retarget of zero handle reported true")
	}

	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	h2 := q.ScheduleChained(10, func(Cycle) {})
	expectPanic("retarget beyond target", func() { q.RetargetChained(h2, 11) })
	q.Schedule(5, func(Cycle) {})
	q.Step()
	expectPanic("retarget into the past", func() { q.RetargetChained(h2, 3) })
	expectPanic("chained schedule into the past", func() { q.ScheduleChained(3, func(Cycle) {}) })
	expectPanic("chained schedule of nil", func() { q.ScheduleChained(20, nil) })
}

// TestPeekTimeIncludesChains verifies PeekTime and RunUntil see
// pending chained wakes.
func TestPeekTimeIncludesChains(t *testing.T) {
	var q Queue
	fired := false
	q.ScheduleChained(7, func(Cycle) { fired = true })
	if at, ok := q.PeekTime(); !ok || at != 7 {
		t.Fatalf("PeekTime = %d,%v with only a chain pending, want 7,true", at, ok)
	}
	q.Schedule(3, func(Cycle) {})
	if at, ok := q.PeekTime(); !ok || at != 3 {
		t.Fatalf("PeekTime = %d,%v, want 3,true", at, ok)
	}
	if n := q.RunUntil(7); n != 2 {
		t.Fatalf("RunUntil(7) dispatched %d events, want 2", n)
	}
	if !fired {
		t.Fatal("chained wake did not fire by its target")
	}
}

// TestChainPassed pins ChainPassed: within a cycle a chained wake has
// not passed while only events scheduled before the cycle began
// dispatch, and has passed once an event scheduled during the cycle
// dispatches; fired and zero handles report false.
func TestChainPassed(t *testing.T) {
	var q Queue
	var h ChainHandle
	var before, after bool
	q.Schedule(3, func(Cycle) {
		h = q.ScheduleChained(20, func(Cycle) {})
	})
	q.Schedule(5, func(now Cycle) {
		before = q.ChainPassed(h)
		q.Schedule(now, func(Cycle) { after = q.ChainPassed(h) })
	})
	q.RunUntil(5)
	if before {
		t.Fatal("ChainPassed true before any younger dispatch this cycle")
	}
	if !after {
		t.Fatal("ChainPassed false after a younger dispatch this cycle")
	}
	q.Run(100)
	if q.ChainPassed(h) {
		t.Fatal("ChainPassed true for a fired chain")
	}
	if q.ChainPassed(ChainHandle{}) {
		t.Fatal("ChainPassed true for the zero handle")
	}
}
