package main

import (
	"sort"
	"sync"
	"time"
)

// spanNode aggregates every span with one name under one parent: the
// per-call spans of a run number in the millions, so they are summed in
// place instead of being kept one by one.
type spanNode struct {
	name       string
	count      int64
	total      time.Duration // summed span durations
	childTotal time.Duration // summed durations of direct child spans
	childCalls int64         // direct child spans opened inside this one
	children   []*spanNode
}

// child returns the node for name under n, creating it on first use. A
// parent has a handful of children, so a linear scan beats a map.
func (n *spanNode) child(name string) *spanNode {
	for _, c := range n.children {
		if c.name == name {
			return c
		}
	}
	c := &spanNode{name: name}
	n.children = append(n.children, c)
	return c
}

// add folds o's counts and subtree into n.
func (n *spanNode) add(o *spanNode) {
	n.count += o.count
	n.total += o.total
	n.childTotal += o.childTotal
	n.childCalls += o.childCalls
	for _, oc := range o.children {
		n.child(oc.name).add(oc)
	}
}

// walk calls fn on n and every descendant.
func (n *spanNode) walk(fn func(*spanNode)) {
	fn(n)
	for _, c := range n.children {
		c.walk(fn)
	}
}

// coarseSpan is one occurrence of a span that runs a few times per rep
// (a whole run, a trace load, the energy model); these are kept
// individually.
type coarseSpan struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// frame is one open span.
type frame struct {
	node  *spanNode
	start time.Duration
}

// tracer records spans around calls into the simulator's layers. One
// goroutine owns a tracer while it records; merge is the only method
// safe to call from several goroutines at once.
type tracer struct {
	epoch  time.Time
	root   spanNode
	stack  []frame
	coarse []coarseSpan

	// Harness counters taken at the same boundaries as the spans.
	steps       int64 // event.Queue.Step calls
	memAttempts int64 // cpu.Memory Read and Write calls
	memRejected int64 // of those, refused for queue space

	mu sync.Mutex // guards merge
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span named name inside the innermost open span.
func (t *tracer) begin(name string) {
	parent := &t.root
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].node
	}
	t.stack = append(t.stack, frame{node: parent.child(name), start: t.now()})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	f := t.stack[len(t.stack)-1]
	d := t.now() - f.start
	t.stack = t.stack[:len(t.stack)-1]
	f.node.count++
	f.node.total += d
	parent := &t.root
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].node
	}
	parent.childTotal += d
	parent.childCalls++
	return d
}

// span records fn as a coarse span: aggregated like any other and also
// kept as one entry of the coarse list.
func (t *tracer) span(name string, fn func() error) error {
	t.begin(name)
	err := fn()
	d := t.end()
	t.coarse = append(t.coarse, coarseSpan{Name: name, MS: ms(d)})
	return err
}

// merge folds o, a finished tracer, into t's root.
func (t *tracer) merge(o *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.add(&o.root)
	t.coarse = append(t.coarse, o.coarse...)
	t.steps += o.steps
	t.memAttempts += o.memAttempts
	t.memRejected += o.memRejected
}

// timerCost is the calibrated cost of an empty span in nanoseconds:
// inner is the duration the span itself records, outer what it adds to
// its parent.
type timerCost struct {
	inner, outer float64
}

// calibrate measures the empty-span cost as the median of several
// batches of empty spans.
func calibrate() timerCost {
	const batches, perBatch = 7, 50_000
	inner := make([]float64, batches)
	outer := make([]float64, batches)
	for b := range inner {
		t := newTracer()
		t.begin("calibrate")
		for i := 0; i < perBatch; i++ {
			t.begin("empty")
			t.end()
		}
		t.end()
		parent := t.root.child("calibrate")
		inner[b] = float64(parent.child("empty").total) / perBatch
		outer[b] = float64(parent.total) / perBatch
	}
	return timerCost{inner: median(inner), outer: median(outer)}
}

// selfTime is the time in nanoseconds spent in the spans named name
// outside their child spans, with the timer cost removed, and how many
// such spans there were.
func (t *tracer) selfTime(name string, c timerCost) (self float64, calls int64) {
	t.root.walk(func(n *spanNode) {
		if n.name != name {
			return
		}
		calls += n.count
		self += float64(n.total-n.childTotal) -
			float64(n.count)*c.inner -
			float64(n.childCalls)*(c.outer-c.inner)
	})
	return self, calls
}

// perCall is selfTime per span in nanoseconds (0 when no span ran).
func (t *tracer) perCall(name string, c timerCost) float64 {
	self, calls := t.selfTime(name, c)
	if calls == 0 {
		return 0
	}
	return self / float64(calls)
}

// total sums the recorded durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	t.root.walk(func(n *spanNode) {
		if n.name == name {
			d += n.total
		}
	})
	return d
}

// spanJSON is the written form of one aggregated span.
type spanJSON struct {
	Name     string     `json:"name"`
	Count    int64      `json:"count"`
	TotalMS  float64    `json:"total_ms"`
	SelfMS   float64    `json:"self_ms"`
	Children []spanJSON `json:"children,omitempty"`
}

// tree renders the aggregated spans below n, largest total first.
func (n *spanNode) tree() []spanJSON {
	out := make([]spanJSON, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, spanJSON{
			Name: c.name, Count: c.count,
			TotalMS: ms(c.total), SelfMS: ms(c.total - c.childTotal),
			Children: c.tree(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
