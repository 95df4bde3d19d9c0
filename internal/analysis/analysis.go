// Package analysis implements the paper's §III offline study of refresh
// behaviour: classifying refreshes as blocking/non-blocking (Fig. 2),
// counting requests blocked per blocking refresh (Fig. 3), and the
// (B, A) event statistics around refresh start times that yield the
// event coverage of Fig. 4 and the λ/β probabilities of Table I.
package analysis

import (
	"sort"

	"ropsim/internal/core"
	"ropsim/internal/event"
	"ropsim/internal/memctrl"
)

// Timeline indexes a captured run for window queries.
type Timeline struct {
	// perRank request events, sorted by time.
	perRank   [][]memctrl.ReqEvent
	refreshes []memctrl.RefEvent
}

// NewTimeline builds a timeline over a capture for a system with the
// given rank count.
func NewTimeline(cap *memctrl.Capture, ranks int) *Timeline {
	t := &Timeline{perRank: make([][]memctrl.ReqEvent, ranks)}
	for _, r := range cap.Requests {
		if r.Rank >= 0 && r.Rank < ranks {
			t.perRank[r.Rank] = append(t.perRank[r.Rank], r)
		}
	}
	for rank := range t.perRank {
		evs := t.perRank[rank]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	}
	t.refreshes = append(t.refreshes, cap.Refreshes...)
	sort.SliceStable(t.refreshes, func(i, j int) bool {
		return t.refreshes[i].At < t.refreshes[j].At
	})
	return t
}

// NumRefreshes reports how many refreshes the capture holds.
func (t *Timeline) NumRefreshes() int { return len(t.refreshes) }

// countIn counts requests to rank in [from, to); reads counts only read
// requests, otherwise all requests.
func (t *Timeline) countIn(rank int, from, to event.Cycle, readsOnly bool) int {
	evs := t.perRank[rank]
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].At >= from })
	n := 0
	for i := lo; i < len(evs) && evs[i].At < to; i++ {
		if !readsOnly || evs[i].IsRead {
			n++
		}
	}
	return n
}

// NonBlockingFraction reports the fraction of refreshes with no read
// request arriving within [T, T+L) of the refresh start T (Fig. 2; the
// paper examines L = 1x, 2x, 4x the refresh cycle, and only reads block
// because writes are buffered).
func (t *Timeline) NonBlockingFraction(L event.Cycle) float64 {
	if len(t.refreshes) == 0 {
		return 0
	}
	nonBlocking := 0
	for _, ref := range t.refreshes {
		if t.countIn(ref.Rank, ref.At, ref.At+L, true) == 0 {
			nonBlocking++
		}
	}
	return float64(nonBlocking) / float64(len(t.refreshes))
}

// BlockedStats reports the mean and maximum number of reads blocked per
// blocking refresh for window length L (Fig. 3).
func (t *Timeline) BlockedStats(L event.Cycle) (mean float64, max int) {
	blockingRefreshes := 0
	totalBlocked := 0
	for _, ref := range t.refreshes {
		n := t.countIn(ref.Rank, ref.At, ref.At+L, true)
		if n > 0 {
			blockingRefreshes++
			totalBlocked += n
			if n > max {
				max = n
			}
		}
	}
	if blockingRefreshes == 0 {
		return 0, 0
	}
	return float64(totalBlocked) / float64(blockingRefreshes), max
}

// WindowStats are the (B, A) classification counts over all refreshes
// for one observational-window length: Counts[b][a] counts refreshes
// with (B>0)==b and (A>0)==a. B counts reads and writes in the window
// before the refresh; A counts reads in the window after (paper §IV-B).
type WindowStats struct {
	// Counts[b][a] is the number of refreshes whose before-window had
	// activity iff b==1 and whose after-window had reads iff a==1.
	Counts core.WindowCounts
}

// Total reports the number of refreshes classified.
func (w WindowStats) Total() int64 {
	return w.Counts[0][0] + w.Counts[0][1] + w.Counts[1][0] + w.Counts[1][1]
}

// E1Fraction reports the share of refreshes with B>0 && A>0.
func (w WindowStats) E1Fraction() float64 {
	if w.Total() == 0 {
		return 0
	}
	return float64(w.Counts[1][1]) / float64(w.Total())
}

// E2Fraction reports the share of refreshes with B=0 && A=0.
func (w WindowStats) E2Fraction() float64 {
	if w.Total() == 0 {
		return 0
	}
	return float64(w.Counts[0][0]) / float64(w.Total())
}

// Coverage reports E1Fraction+E2Fraction, the share of refreshes the
// two dominant events explain (Fig. 4).
func (w WindowStats) Coverage() float64 { return w.E1Fraction() + w.E2Fraction() }

// Lambda reports P{A>0 | B>0} (Table I). Refreshes with B>0 never
// observed yield 0.
func (w WindowStats) Lambda() float64 {
	lambda, _ := w.Counts.Lambda()
	return lambda
}

// Beta reports P{A=0 | B=0} (Table I). Refreshes with B=0 never
// observed yield 0.
func (w WindowStats) Beta() float64 {
	beta, _ := w.Counts.Beta()
	return beta
}

// Windows classifies every refresh with observational windows of length
// W before and after the refresh start.
func (t *Timeline) Windows(W event.Cycle) WindowStats {
	var w WindowStats
	for _, ref := range t.refreshes {
		from := ref.At - W
		if from < 0 {
			from = 0
		}
		b := t.countIn(ref.Rank, from, ref.At, false) > 0
		a := t.countIn(ref.Rank, ref.At, ref.At+W, true) > 0
		w.Counts.Record(b, a)
	}
	return w
}
