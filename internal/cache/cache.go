// Package cache implements the simulated last-level cache: set
// associative, write-back, write-allocate, with true-LRU replacement.
// The paper's configuration uses a 2 MB LLC for single-core runs and
// 4 MB for 4-core runs, and sweeps 1-8 MB in the sensitivity study
// (Figs 12-14).
package cache

import (
	"fmt"

	"ropsim/internal/stats"
)

// Config describes an LLC instance.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // cache-line size
	Ways      int // associativity
}

// MiB is a convenience constant for sizing configs.
const MiB = 1 << 20

// DefaultConfig returns the paper's LLC shape at the given capacity:
// 64-byte lines, 16-way.
func DefaultConfig(sizeBytes int) Config {
	return Config{SizeBytes: sizeBytes, LineBytes: 64, Ways: 16}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets == 0 {
		return fmt.Errorf("cache: fewer lines (%d) than ways (%d)", lines, c.Ways)
	}
	if sets*c.Ways != lines {
		return fmt.Errorf("cache: %d lines not divisible into %d ways", lines, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// way is one line slot: the cached line index and its dirty bit.
type way struct {
	line  uint64
	valid bool
	dirty bool
}

// Cache is a set-associative LRU cache keyed by cache-line index (not
// byte address). Set s occupies ways[s*assoc : (s+1)*assoc] and keeps
// its ways in LRU order: index 0 is the most recently used.
type Cache struct {
	cfg   Config
	ways  []way
	assoc int
	mask  uint64

	// Hits/Misses/Writebacks feed the experiment reports.
	Hits, Misses, Writebacks stats.Counter
}

// New builds a cache. It rejects an invalid configuration with the
// validation error (a bad CLI flag surfaces as a clean one-line error,
// not a stack trace).
func New(cfg Config) (*Cache, error) {
	c := &Cache{}
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset turns c into an empty cache of configuration cfg, as New(cfg)
// would build, with its counters at zero. It reuses c's way storage
// when that is large enough, clearing it in place, and allocates new
// storage otherwise. On an invalid cfg it returns the validation error
// and leaves c unchanged.
func (c *Cache) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	ways := c.ways[:cap(c.ways)]
	if len(ways) < lines {
		ways = make([]way, lines)
	} else {
		ways = ways[:lines]
		clear(ways)
	}
	*c = Cache{cfg: cfg, ways: ways, assoc: cfg.Ways, mask: uint64(lines/cfg.Ways - 1)}
	return nil
}

// MustNew is New for statically known-good configurations (tests,
// examples); it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// RegisterMetrics registers the cache's access counters and derived
// miss rate into r (typically an "llc"-scoped sub-registry).
func (c *Cache) RegisterMetrics(r *stats.Registry) {
	r.Register("hits", &c.Hits)
	r.Register("misses", &c.Misses)
	r.Register("writebacks", &c.Writebacks)
	r.Gauge("miss_rate", func() float64 {
		total := c.Hits.Value() + c.Misses.Value()
		if total == 0 {
			return 0
		}
		return float64(c.Misses.Value()) / float64(total)
	})
}

// Config reports the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets reports the number of sets.
func (c *Cache) NumSets() int { return len(c.ways) / c.assoc }

// set returns the ways of the set that line maps to.
func (c *Cache) set(line uint64) []way {
	i := int(line&c.mask) * c.assoc
	return c.ways[i : i+c.assoc : i+c.assoc]
}

// Result describes the outcome of one access.
type Result struct {
	// Hit reports whether the line was present.
	Hit bool
	// EvictedValid reports a dirty victim that must be written back to
	// memory; it is false on hits and clean evictions.
	EvictedValid bool
	// EvictedLine is the dirty victim's cache-line address (valid only
	// when EvictedValid is set).
	EvictedLine uint64
}

// Access looks up line, allocating on miss (write-allocate) and marking
// dirty on write. The returned Result reports whether a dirty victim
// needs writing back.
func (c *Cache) Access(line uint64, write bool) Result {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			w := set[i]
			copy(set[1:i+1], set[:i]) // move to MRU
			w.dirty = w.dirty || write
			set[0] = w
			c.Hits.Inc()
			return Result{Hit: true}
		}
	}
	c.Misses.Inc()
	victim := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = way{line: line, valid: true, dirty: write}
	if victim.valid && victim.dirty {
		c.Writebacks.Inc()
		return Result{EvictedValid: true, EvictedLine: victim.line}
	}
	return Result{}
}

// Contains reports whether line is cached, without touching LRU state or
// counters (a test/inspection helper).
func (c *Cache) Contains(line uint64) bool {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			return true
		}
	}
	return false
}

// HitRate reports hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.Hits.Value() + c.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(c.Hits.Value()) / float64(total)
}
