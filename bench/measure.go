package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupRounds is how many times each workload is set up per set; setup_s
// is their median.
const setupRounds = 3

// timedReps is how many timed reps each workload runs when no time box
// is set.
const timedReps = 100

// options are the settings every pass shares.
type options struct {
	seed    int64
	seconds float64 // when > 0, each pass runs for this long instead of a fixed rep count
	jobs    int     // campaign workers
}

// budget decides when a pass has run enough reps: a fixed count, or a
// time box with a floor.
type budget struct {
	reps  int
	until time.Time // zero: count reps only
}

// budget returns a pass's budget: reps when no time box is set, else
// share of the time box and at least minReps.
func (o options) budget(reps, minReps int, share float64) budget {
	if o.seconds <= 0 {
		return budget{reps: reps}
	}
	d := time.Duration(o.seconds * share * float64(time.Second))
	return budget{reps: minReps, until: time.Now().Add(d)}
}

func (b budget) done(n int) bool {
	return n >= b.reps && (b.until.IsZero() || !time.Now().Before(b.until))
}

// referenceNominal is the reference's fastest time over about 6,600 runs
// on the 2-CPU host the bounds were set on: the host at its quietest.
const referenceNominal = 24 * time.Millisecond

// referenceKernel is fixed work: a pointer chase over a 512 KiB
// permutation, small map and slice allocations, a linked list of small
// records and a bounded binary heap, the mix of memory latency,
// allocation, collection and event-queue work the simulator itself
// does. Its code never changes, so its time tracks how fast the host
// runs.
func referenceKernel() int {
	const n = 1 << 17
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(n)
	next := make([]int32, n)
	for i, p := range perm {
		next[p] = int32(perm[(i+1)%n])
	}
	p, s := int32(0), 0
	for i := 0; i < 2*n; i++ {
		p = next[p]
		s += int(p) % 13
	}
	m := map[int][]byte{}
	for i := 0; i < 30_000; i++ {
		k := r.Intn(10_000)
		m[k] = make([]byte, 32+k%64)
	}
	type record struct {
		next *record
		v    [3]int
	}
	var list *record
	for i := 0; i < 20_000; i++ {
		list = &record{next: list, v: [3]int{i}}
	}
	for e := list; e != nil; e = e.next {
		s += e.v[0] & 1
	}
	h := &intHeap{}
	for i := 0; i < 30_000; i++ {
		heap.Push(h, r.Intn(1<<20))
		if h.Len() > 2000 {
			s += heap.Pop(h).(int) & 1
		}
	}
	return s + len(m)
}

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// reference runs the kernel on width goroutines at once and returns the
// wall time until all have finished, and the kernels' checksum.
func reference(width int) (time.Duration, int) {
	start := time.Now()
	sums := make([]int, width)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = referenceKernel()
		}()
	}
	wg.Wait()
	d := time.Since(start)
	sum := 0
	for _, s := range sums {
		sum += s
	}
	return d, sum
}

// hostClock brackets measured intervals with runs of the reference. The
// host is shared and its speed drifts: the median wall time of one fixed
// rep moved by 15% (interquartile range over 10-second windows) within
// minutes. Dividing each interval by the mean of the reference times
// just before and just after it cancels most of that. One reference run
// is the kernel on every CPU at once and then on one CPU: a slowdown on
// either CPU slows the simulator (the collector and the campaign's
// workers use the second one), while a single-run rep does most of its
// work on one. Over twelve 10-second runs each of three single-run
// workloads, the normalized time ranged over 5-6% of its median; with
// only the chase-and-map part of the kernel, on every CPU, it ranged
// over 6-18%.
type hostClock struct {
	width int       // goroutines the all-CPU reference runs on
	last  float64   // ms of the latest reference run
	refs  []float64 // every reference run, ms
	sum   int       // the kernels' checksums, kept so the work stays live
}

func newHostClock(width int) *hostClock {
	c := &hostClock{width: width}
	c.reference()
	return c
}

func (c *hostClock) reference() {
	var d time.Duration
	for _, width := range []int{c.width, 1} {
		runtime.GC()
		w, sum := reference(width)
		d += w
		c.sum += sum
	}
	c.last = ms(d)
	c.refs = append(c.refs, c.last)
}

// scale ends an interval: it runs the reference again and returns the
// factor that turns the interval's wall time into a host-normalized
// time, the time it would take with the host at nominal speed.
func (c *hostClock) scale() float64 {
	before := c.last
	c.reference()
	return ms(referenceNominal) / ((before + c.last) / 2)
}

// repSample is what the harness keeps of one timed rep.
type repSample struct {
	variant       int
	wall, norm    float64 // ms: wall time and host-normalized time
	commands      float64 // DRAM commands issued
	requests      float64 // DRAM requests served
	instructions  float64 // instructions retired
	ipc           float64 // the model's mean per-core IPC
	mallocs, peak float64 // heap objects allocated, peak live heap bytes
}

// runStats collects one workload's timed set.
type runStats struct {
	w         benchWorkload
	sess      *session
	setups    []float64 // host-normalized s: input preparation + warm-up reps
	reps      []repSample
	attempted int
	failed    int
	errs      []error
}

// record counts a rep and reports whether it passed its digest check.
func (r *runStats) record(o outcome, err error) bool {
	r.attempted++
	if err == nil {
		err = r.sess.check(o)
	}
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err)
		return false
	}
	return true
}

// setup prepares the workload's inputs and runs one warm-up rep of each
// input variant. With a nil clock the set-up time is not recorded.
func (r *runStats) setup(o options, c *hostClock) error {
	runtime.GC()
	start := time.Now()
	s, err := newSession(r.w, o.seed, o.jobs)
	if err != nil {
		return fmt.Errorf("%s: %w", r.w.name, err)
	}
	if r.sess != nil {
		s.want = r.sess.want // every set-up must agree with the first
	}
	r.sess = s
	for k := 0; k < variants; k++ {
		r.record(s.rep(nil))
	}
	wall := time.Since(start)
	if c != nil {
		r.setups = append(r.setups, wall.Seconds()*c.scale())
	}
	return nil
}

// timedRep runs one measured rep after a collection, so reps start
// from the same heap.
func (r *runStats) timedRep(h *heapSampler, c *hostClock) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	h.reset()
	start := time.Now()
	out, err := r.sess.rep(nil)
	wall := time.Since(start)
	peak := h.read()
	runtime.ReadMemStats(&m1)
	scale := c.scale()
	if !r.record(out, err) {
		return
	}
	r.reps = append(r.reps, repSample{
		variant:      out.variant,
		wall:         ms(wall),
		norm:         ms(wall) * scale,
		commands:     out.commands(),
		requests:     out.requests(),
		instructions: out.instructions(),
		ipc:          out.ipc(),
		mallocs:      float64(m1.Mallocs - m0.Mallocs),
		peak:         float64(peak),
	})
}

// column extracts one per-rep quantity.
func (r *runStats) column(f func(repSample) float64) []float64 {
	out := make([]float64, len(r.reps))
	for i, s := range r.reps {
		out[i] = f(s)
	}
	return out
}

// centre is the mean over input variants of each variant's median of f.
// With several inputs of different cost in a run, the median of all reps
// together would fall in a gap between two variants and jump across it
// from run to run. tail is the nearest-rank 90th
// percentile of f relative to its variant's median, scaled by centre.
func (r *runStats) centre(f func(repSample) float64) (centre, tail float64) {
	var byVariant [variants][]float64
	for _, s := range r.reps {
		byVariant[s.variant] = append(byVariant[s.variant], f(s))
	}
	var medians [variants]float64
	n := 0
	for k, vs := range byVariant {
		if len(vs) > 0 {
			medians[k] = median(vs)
			centre += medians[k]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	centre /= float64(n)
	rel := make([]float64, len(r.reps))
	for i, s := range r.reps {
		rel[i] = f(s) / medians[s.variant]
	}
	return centre, centre * p90(rel)
}

// measureSet runs one complete set: every workload set up setupRounds
// times, then timed reps round-robin across workloads, so slow drift on
// the host spreads evenly over them. It returns the reference kernel's
// median time over the set.
func measureSet(ws []benchWorkload, o options) ([]*runStats, float64, error) {
	rs := make([]*runStats, len(ws))
	for i, w := range ws {
		rs[i] = &runStats{w: w}
	}
	c := newHostClock(o.jobs)
	for round := 0; round < setupRounds; round++ {
		for _, r := range rs {
			if err := r.setup(o, c); err != nil {
				return nil, 0, err
			}
		}
	}
	h := startHeapSampler()
	defer h.stop()
	b := o.budget(timedReps, 10, 1)
	for n := 0; !b.done(n); n++ {
		for _, r := range rs {
			r.timedRep(h, c)
		}
	}
	return rs, median(c.refs), nil
}

// endToEnd derives the end-to-end metrics from a timed set. The work a
// rep does varies with its input (wl6-rop-sparse serves 36k to 77k
// requests over seeds 1-10), so each rep's time is divided by the DRAM
// commands it issued, which track the host cost across inputs more
// closely than requests do. Allocations are counted per request, since
// each request allocates its own records.
func (r *runStats) endToEnd() map[string]float64 {
	ns, nsP90 := r.centre(func(s repSample) float64 { return s.norm * 1e6 / s.commands })
	allocs, _ := r.centre(func(s repSample) float64 { return s.mallocs / s.requests })
	peak, _ := r.centre(func(s repSample) float64 { return s.peak })
	return map[string]float64{
		"setup_s":            median(r.setups),
		"ns_per_command":     ns,
		"ns_per_command_p90": nsP90,
		"allocs_per_request": allocs,
		"heap_peak_mb":       peak / (1 << 20),
	}
}

// summary describes a timed set in terms the normalized metrics hide:
// raw wall time per rep, simulated speed and the model's own output.
func (r *runStats) summary() string {
	walls := r.column(func(s repSample) float64 { return s.wall })
	return fmt.Sprintf("wall p50 %.2f ms, p90 %.2f ms; %.1f Minst/s; %.0f requests, %.0f commands per rep; sim IPC %.4f",
		median(walls), p90(walls),
		median(r.column(func(s repSample) float64 { return s.instructions / s.wall / 1e3 })),
		median(r.column(func(s repSample) float64 { return s.requests })),
		median(r.column(func(s repSample) float64 { return s.commands })),
		median(r.column(func(s repSample) float64 { return s.ipc })))
}

// heapSampler tracks the peak of live heap objects, sampled every
// millisecond by one goroutine.
type heapSampler struct {
	peak  atomic.Uint64
	own   []metrics.Sample // the caller's sample buffer
	quit  chan struct{}
	ended chan struct{}
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		own:   []metrics.Sample{{Name: heapObjects}},
		quit:  make(chan struct{}),
		ended: make(chan struct{}),
	}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.ended)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	s := []metrics.Sample{{Name: heapObjects}}
	for {
		select {
		case <-h.quit:
			return
		case <-tick.C:
			h.observe(s)
		}
	}
}

func (h *heapSampler) observe(s []metrics.Sample) {
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak from the current heap.
func (h *heapSampler) reset() {
	h.peak.Store(0)
	h.observe(h.own)
}

// read takes a last sample and returns the peak since reset.
func (h *heapSampler) read() uint64 {
	h.observe(h.own)
	return h.peak.Load()
}

// stop ends the sampling goroutine and waits for it.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.ended
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for
// an even count), 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// p90 returns the nearest-rank 90th percentile: the smallest sample with
// at least 90% of samples at or below it, so 100 distinct samples leave
// exactly 10 beyond it.
func p90(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[(9*len(s)+9)/10-1]
}

// spread is the range of vs relative to their median.
func spread(vs []float64) float64 {
	s := sorted(vs)
	if len(s) == 0 || s[0] == s[len(s)-1] {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(median(s))
}
