package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ropsim/internal/event"
	"ropsim/internal/memctrl"
)

// wdConfig is a small single-core run for watchdog tests.
func wdConfig() Config {
	cfg := Default("bzip2")
	cfg.Instructions = 100_000
	cfg.ROPTrainRefreshes = 4
	return cfg
}

// livelock returns run seams that plant an event chain rescheduling
// itself at the same cycle forever: the queue never advances past it,
// no later event fires, and no instruction retires.
func livelock() seams {
	return seams{stall: func(q *event.Queue) {
		var spin func(now event.Cycle)
		spin = func(now event.Cycle) { q.Schedule(now, spin) }
		q.Schedule(0, spin)
	}}
}

func TestFaultWatchdogKillsLivelock(t *testing.T) {
	cfg := wdConfig()
	cfg.LivelockEvents = 50_000
	_, err := new(Arena).run(context.Background(), cfg, livelock())
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("livelocked run returned %v, want *WatchdogError", err)
	}
	if !strings.Contains(we.Reason, "livelock") {
		t.Errorf("reason %q does not mention livelock", we.Reason)
	}
	if we.Retired >= wdConfig().Instructions {
		t.Errorf("watchdog fired after all %d instructions retired", we.Retired)
	}
	for _, want := range []string{"cycle=", "queues:", "rank 0:", "open_rows"} {
		if !strings.Contains(we.Dump, want) {
			t.Errorf("diagnostic dump missing %q:\n%s", want, we.Dump)
		}
	}
}

func TestFaultWatchdogWallClockDeadline(t *testing.T) {
	// A livelocked run with a tiny deadline and the livelock detector
	// disabled: only the wall-clock check can (and must) stop it.
	cfg := wdConfig()
	cfg.LivelockEvents = -1
	cfg.RunTimeout = time.Millisecond
	_, err := new(Arena).run(context.Background(), cfg, livelock())
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("past-deadline run returned %v, want *WatchdogError", err)
	}
	if !strings.Contains(we.Reason, "deadline") {
		t.Errorf("reason %q does not mention the deadline", we.Reason)
	}
}

func TestFaultWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := wdConfig()
	cfg.LivelockEvents = 100_000 // tight, but healthy runs retire constantly
	cfg.RunTimeout = time.Minute
	if _, err := Run(cfg); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
}

func TestFaultRunCtxCancelAborts(t *testing.T) {
	// A cancelled context must abort even a livelocked run (the poll
	// happens every watchdogInterval events regardless of progress).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := new(Arena).run(ctx, wdConfig(), livelock())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestFaultCheckerCleanOnAllModes(t *testing.T) {
	// The wired-in sanitizer must see a legal command stream from every
	// refresh policy it models.
	for _, mode := range []memctrl.Mode{memctrl.ModeBaseline, memctrl.ModeROP, memctrl.ModeElastic, memctrl.ModePausing} {
		cfg := wdConfig()
		cfg.Mode = mode
		cfg.Check = true
		if _, err := Run(cfg); err != nil {
			t.Errorf("mode %v: sanitizer-enabled run failed: %v", mode, err)
		}
	}
}
