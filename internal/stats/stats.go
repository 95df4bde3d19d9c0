// Package stats provides the small statistical primitives shared by the
// simulator — counters, running means, histograms, and ratio helpers —
// plus the hierarchical metrics Registry every subsystem registers them
// into, so that experiment harnesses and run artifacts (-stats-out) can
// aggregate results uniformly (see docs/METRICS.md for the namespace).
//
// # Concurrency
//
// Counter, Mean, Ratio, Histogram and Registry are deliberately
// unsynchronized: the simulator's invariant is that one simulation run
// — and therefore one registry and every metric registered in it — is
// owned by exactly one goroutine. The parallel experiment runner
// (internal/runner) achieves safe parallelism by giving each run its
// own registry, never by sharing one; a race-detector test
// (TestParallelRegistryIsolation) enforces this. The sole exception is
// AtomicCounter, which exists for cross-goroutine bookkeeping such as
// the runner's completion counts.
package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n int64
}

// Add increments the counter by d, which must be non-negative.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("stats: negative Counter.Add")
	}
	c.n += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Reset clears the counter.
func (c *Counter) Reset() { c.n = 0 }

// AtomicCounter is a Counter safe for concurrent use. The experiment
// runner uses it for completion counts read by progress reporters while
// workers are still incrementing.
type AtomicCounter struct {
	n atomic.Int64
}

// Add increments the counter by d, which must be non-negative.
func (c *AtomicCounter) Add(d int64) {
	if d < 0 {
		panic("stats: negative AtomicCounter.Add")
	}
	c.n.Add(d)
}

// Inc increments the counter by one.
func (c *AtomicCounter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *AtomicCounter) Value() int64 { return c.n.Load() }

// Reset clears the counter.
func (c *AtomicCounter) Reset() { c.n.Store(0) }

// Mean accumulates a running arithmetic mean without storing samples.
type Mean struct {
	n   int64
	sum float64
}

// Observe adds one sample.
func (m *Mean) Observe(v float64) {
	m.n++
	m.sum += v
}

// N reports the number of samples observed.
func (m *Mean) N() int64 { return m.n }

// Value reports the mean of the observed samples, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Sum reports the sum of the observed samples.
func (m *Mean) Sum() float64 { return m.sum }

// Reset clears the accumulator.
func (m *Mean) Reset() { m.n = 0; m.sum = 0 }

// Ratio is a numerator/denominator pair, used for hit rates and
// probability estimates. The zero value is an empty ratio.
type Ratio struct {
	// Num counts hits; Den counts trials.
	Num, Den int64
}

// ObserveHit records one trial with outcome hit.
func (r *Ratio) ObserveHit(hit bool) {
	r.Den++
	if hit {
		r.Num++
	}
}

// Value reports Num/Den, or fallback when no trials were recorded.
func (r *Ratio) Value(fallback float64) float64 {
	if r.Den == 0 {
		return fallback
	}
	return float64(r.Num) / float64(r.Den)
}

// Reset clears the ratio.
func (r *Ratio) Reset() { r.Num, r.Den = 0, 0 }

// Histogram is a fixed-bucket histogram over int64 samples. Bucket i
// covers [bounds[i-1], bounds[i]); samples at or beyond the last bound
// fall into the overflow bucket.
type Histogram struct {
	bounds []int64
	counts []int64
	n      int64
	sum    int64
	max    int64
}

// NewHistogram builds a histogram with the given strictly increasing
// upper bounds.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe adds one sample.
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound above v: sort.Search's answer,
	// without a closure call per probe on this per-request path.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); v < h.bounds[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	h.counts[lo]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// N reports the total number of samples.
func (h *Histogram) N() int64 { return h.n }

// Max reports the largest observed sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean reports the arithmetic mean of the samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Bucket reports the count in bucket i (0 ≤ i ≤ len(bounds)).
func (h *Histogram) Bucket(i int) int64 { return h.counts[i] }

// NumBuckets reports the number of buckets including overflow.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// String renders the histogram compactly for logs.
func (h *Histogram) String() string {
	s := ""
	lo := int64(math.MinInt64)
	for i, b := range h.bounds {
		if h.counts[i] > 0 {
			s += fmt.Sprintf("[%d,%d):%d ", lo, b, h.counts[i])
		}
		lo = b
	}
	if h.counts[len(h.bounds)] > 0 {
		s += fmt.Sprintf("[%d,inf):%d ", lo, h.counts[len(h.bounds)])
	}
	if s == "" {
		return "(empty)"
	}
	return s[:len(s)-1]
}

// GeoMean reports the geometric mean of vs. Values must be positive;
// non-positive values are skipped. It returns 0 when no valid values
// remain.
func GeoMean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Min returns the smaller of a and b.
func Min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
