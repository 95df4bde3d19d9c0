package memctrl

import (
	"testing"

	"ropsim/internal/addr"
	"ropsim/internal/dram"
	"ropsim/internal/event"
)

// wakeTrace records the controller's tick events plus every issued
// command, so tests can correlate tick outcomes with wake bookkeeping.
type wakeTrace struct {
	events []wakeEvent
	cmds   []dram.Command
}

// wakeEvent is one tick event: fired is false for a superseded skip.
type wakeEvent struct {
	now   event.Cycle
	fired bool
}

func (tr *wakeTrace) install(c *Controller) {
	c.tickObs = func(now event.Cycle, fired bool) {
		tr.events = append(tr.events, wakeEvent{now: now, fired: fired})
	}
	c.SetCommandObserver(func(cmd dram.Command) {
		tr.cmds = append(tr.cmds, cmd)
	})
}

// TestNoSupersededWakeDoesWork pins the superseded-wake contract from
// Controller.tick: a tick event whose cycle no longer matches wakeAt
// (because a later ensureWake armed a different cycle after it was
// queued) must skip without issuing commands or mutating state. The
// scenario arms a far refresh wake, then enqueues a read, which arms an
// earlier tick; the far event still fires, and must fire as a skip.
func TestNoSupersededWakeDoesWork(t *testing.T) {
	c, q := newController(t, ModeBaseline, nil)
	var tr wakeTrace
	tr.install(c)

	// The constructor armed the first refresh due. Enqueue a read well
	// before it: ensureWake(now) supersedes the refresh-due wake.
	loc := addr.Loc{Rank: 0, Bank: 1, Row: 7, Col: 0}
	if !c.EnqueueRead(loc, 0, func(event.Cycle) {}) {
		t.Fatal("enqueue rejected")
	}
	due, ok := c.nextRefreshDue()
	if !ok {
		t.Fatal("no refresh scheduled")
	}
	q.RunUntil(due)

	// Every command must have been issued at a cycle where a tick fired;
	// skips must be bracketed by zero commands.
	fired := make(map[event.Cycle]bool)
	skipped := 0
	for _, ev := range tr.events {
		if ev.fired {
			fired[ev.now] = true
		} else {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("scenario produced no superseded wake; the regression is untested")
	}
	for _, cmd := range tr.cmds {
		if !fired[cmd.At] {
			t.Fatalf("command %v at %d issued without a matching tick fire", cmd.Kind, cmd.At)
		}
	}
}

// TestSupersededWakeSkipIsStateless drives the skip path directly and
// checks it leaves the controller inert: a stale tick may not issue,
// may not change refresh phases, and may not re-arm a wake.
func TestSupersededWakeSkipIsStateless(t *testing.T) {
	c, q := newController(t, ModeNoRefresh, nil)
	var tr wakeTrace
	tr.install(c)

	// No refresh in this mode, so the controller is fully idle; arm two
	// wakes by hand: a far one, then an earlier one that supersedes it.
	c.ensureWake(q.Now() + 100)
	c.ensureWake(q.Now() + 10) // wakeAt moves to +10; the +100 event goes stale
	q.RunUntil(q.Now() + 200)

	skips := 0
	for _, ev := range tr.events {
		if !ev.fired {
			skips++
		}
	}
	if skips != 1 {
		t.Fatalf("want exactly 1 superseded skip, got %d (events: %+v)", skips, tr.events)
	}
	if len(tr.cmds) != 0 {
		t.Fatalf("stale tick issued commands: %+v", tr.cmds)
	}
	if !c.Idle() {
		t.Fatal("stale tick changed controller state")
	}
}
