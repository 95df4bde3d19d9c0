package memctrl

import "ropsim/internal/event"

// ReqEvent records one demand request arrival for offline analysis.
type ReqEvent struct {
	At     event.Cycle // arrival time in bus cycles
	Rank   int         // target rank
	IsRead bool        // read (true) or write (false)
}

// RefEvent records one issued refresh.
type RefEvent struct {
	At   event.Cycle // REF issue time in bus cycles
	Rank int         // refreshed rank
}

// Capture accumulates the request/refresh timeline the paper's §III
// analysis runs over (Figs 2-4, Table I). Issued DRAM commands are
// observed through Controller.SetCommandObserver instead.
type Capture struct {
	// Requests is the demand-request arrival timeline, in issue order.
	Requests []ReqEvent
	// Refreshes is the REF issue timeline, in issue order.
	Refreshes []RefEvent
}

// Request records a demand request arrival.
func (c *Capture) Request(at event.Cycle, rank int, isRead bool) {
	c.Requests = append(c.Requests, ReqEvent{At: at, Rank: rank, IsRead: isRead})
}

// Refresh records a REF issue.
func (c *Capture) Refresh(at event.Cycle, rank int) {
	c.Refreshes = append(c.Refreshes, RefEvent{At: at, Rank: rank})
}
