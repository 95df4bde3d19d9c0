// Watchdog: the forward-progress guard for one simulation run. The
// event loop polls it every watchdogInterval dispatched events; the
// watchdog aborts the run when the wall-clock deadline passes or when
// the system stops retiring instructions (a livelock — e.g. an event
// chain rescheduling itself at the same cycle forever). Aborts carry a
// diagnostic dump of the stuck system: clock, queue depths, per-bank
// open rows. docs/ROBUSTNESS.md describes the thresholds.
//
//simlint:hostcode:file "the watchdog's whole job is comparing wall-clock time against the run deadline; it never feeds simulated state"
package sim

import (
	"fmt"
	"strings"
	"time"

	"ropsim/internal/cpu"
	"ropsim/internal/dram"
	"ropsim/internal/event"
	"ropsim/internal/memctrl"
)

// watchdogInterval is how often, in dispatched events, the run loop
// polls cancellation, the deadline and the livelock detector.
const watchdogInterval = 1024

// DefaultLivelockEvents is the forward-progress window used when
// Config.LivelockEvents is zero: dispatching this many events without a
// single instruction retiring anywhere is treated as a livelock. Legit
// no-retire stretches (refresh lockout, queue drains) span thousands of
// events, not millions, so the default never fires on healthy runs.
const DefaultLivelockEvents = 2_000_000

// WatchdogError reports a run aborted by the forward-progress watchdog,
// carrying a diagnostic snapshot of the stuck system.
type WatchdogError struct {
	// Reason says which detector fired ("wall-clock deadline exceeded"
	// or "livelock: ...").
	Reason string
	// Cycle is the bus-cycle clock at abort time.
	Cycle event.Cycle
	// Dispatched counts events dispatched before the abort.
	Dispatched int64
	// Retired counts instructions retired across all cores.
	Retired int64
	// Dump is the multi-line system snapshot (queue depths, per-bank
	// open rows) for postmortem reading.
	Dump string
}

// Error formats the abort reason with the key counters; the full
// snapshot rides in Dump.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: %s at cycle %d (%d events dispatched, %d instructions retired)",
		e.Reason, e.Cycle, e.Dispatched, e.Retired)
}

// watchdog tracks forward progress of one run.
type watchdog struct {
	deadline time.Time // zero when RunTimeout is unset
	window   int64     // livelock window in events; <=0 disables
	start    time.Time

	cores []*cpu.Core
	ctrl  *memctrl.Controller
	dev   *dram.Device
	q     *event.Queue

	lastRetired    int64
	lastProgressAt int64 // dispatched count at the last observed retire
}

// newWatchdog arms the detectors from cfg: RunTimeout > 0 sets the
// deadline, LivelockEvents sizes the progress window (0 = default,
// negative = disabled).
func newWatchdog(cfg Config, cores []*cpu.Core, ctrl *memctrl.Controller, dev *dram.Device, q *event.Queue) *watchdog {
	w := &watchdog{
		window: cfg.LivelockEvents,
		start:  time.Now(),
		cores:  cores,
		ctrl:   ctrl,
		dev:    dev,
		q:      q,
	}
	if w.window == 0 {
		w.window = DefaultLivelockEvents
	}
	if cfg.RunTimeout > 0 {
		w.deadline = w.start.Add(cfg.RunTimeout)
	}
	return w
}

// retired sums instructions retired across all cores.
func (w *watchdog) retired() int64 {
	var total int64
	for _, c := range w.cores {
		total += c.Instructions()
	}
	return total
}

// check inspects progress, returning a *WatchdogError when the run is
// out of time or livelocked, nil otherwise.
func (w *watchdog) check(dispatched int64, remaining int) error {
	retired := w.retired()
	if retired > w.lastRetired {
		w.lastRetired = retired
		w.lastProgressAt = dispatched
	}
	if !w.deadline.IsZero() && time.Now().After(w.deadline) {
		return w.abort("wall-clock deadline exceeded", dispatched, retired, remaining)
	}
	if w.window > 0 && dispatched-w.lastProgressAt >= w.window {
		return w.abort(fmt.Sprintf("livelock: no instruction retired in %d events", w.window),
			dispatched, retired, remaining)
	}
	return nil
}

// abort builds the WatchdogError with the diagnostic dump.
func (w *watchdog) abort(reason string, dispatched, retired int64, remaining int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d dispatched=%d retired=%d unfinished_cores=%d wall=%s\n",
		w.q.Now(), dispatched, retired, remaining, time.Since(w.start).Round(time.Millisecond))
	fmt.Fprintf(&b, "queues: read=%d write=%d pending_events=%d\n",
		w.ctrl.ReadQueueLen(), w.ctrl.WriteQueueLen(), w.q.Len())
	geo := w.dev.Geometry()
	for r := 0; r < geo.Ranks; r++ {
		fmt.Fprintf(&b, "rank %d: refreshing=%v open_rows=[", r, w.dev.Refreshing(r, w.q.Now()))
		for bk := 0; bk < geo.Banks; bk++ {
			if bk > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", w.dev.OpenRow(r, bk))
		}
		b.WriteString("]\n")
	}
	return &WatchdogError{
		Reason:     reason,
		Cycle:      w.q.Now(),
		Dispatched: dispatched,
		Retired:    retired,
		Dump:       b.String(),
	}
}
