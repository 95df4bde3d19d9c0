package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(2 * MiB).Validate(); err != nil {
		t.Errorf("default 2MB config invalid: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 16},
		{SizeBytes: 1 << 20, LineBytes: 60, Ways: 16},
		{SizeBytes: 1 << 20, LineBytes: 64, Ways: 0},
		{SizeBytes: 64 * 8, LineBytes: 64, Ways: 16},  // fewer lines than ways
		{SizeBytes: 3 << 20, LineBytes: 64, Ways: 16}, // sets not power of two
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew(Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 4}) // 64 lines, 16 sets of 4 ways
	if r := c.Access(1, false); r.Hit {
		t.Error("first access hit")
	}
	if r := c.Access(1, false); !r.Hit {
		t.Error("second access missed")
	}
	if c.Hits.Value() != 1 || c.Misses.Value() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits.Value(), c.Misses.Value())
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set of 2 ways: lines mapping to set 0 with stride NumSets.
	c := MustNew(Config{SizeBytes: 2 * 64 * 2, LineBytes: 64, Ways: 2})
	sets := uint64(c.NumSets())
	a, b, d := uint64(0), sets, 2*sets
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b
	if !c.Contains(a) || !c.Contains(d) {
		t.Error("expected a and d cached")
	}
	if c.Contains(b) {
		t.Error("LRU victim b still cached")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := MustNew(Config{SizeBytes: 2 * 64, LineBytes: 64, Ways: 1})
	sets := uint64(c.NumSets())
	c.Access(0, true) // dirty
	r := c.Access(sets, false)
	if !r.EvictedValid || r.EvictedLine != 0 {
		t.Errorf("expected dirty writeback of line 0, got %+v", r)
	}
	// Clean eviction produces no writeback.
	r = c.Access(2*sets, false)
	if r.EvictedValid {
		t.Errorf("clean eviction produced writeback: %+v", r)
	}
	if c.Writebacks.Value() != 1 {
		t.Errorf("writebacks = %d, want 1", c.Writebacks.Value())
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := MustNew(Config{SizeBytes: 2 * 64, LineBytes: 64, Ways: 1})
	sets := uint64(c.NumSets())
	c.Access(0, false) // clean fill
	c.Access(0, true)  // write hit marks dirty
	r := c.Access(sets, false)
	if !r.EvictedValid {
		t.Error("write-hit line evicted without writeback")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 1024, LineBytes: 64, Ways: 16}
	c := MustNew(cfg)
	lines := cfg.SizeBytes / cfg.LineBytes
	// Touch every line once (cold misses), then loop: all hits.
	for l := 0; l < lines; l++ {
		c.Access(uint64(l), false)
	}
	c.Hits.Reset()
	c.Misses.Reset()
	for pass := 0; pass < 3; pass++ {
		for l := 0; l < lines; l++ {
			c.Access(uint64(l), false)
		}
	}
	if c.Misses.Value() != 0 {
		t.Errorf("%d misses on resident working set", c.Misses.Value())
	}
}

func TestWorkingSetThrashes(t *testing.T) {
	// Sequential loop over 2x capacity with LRU yields ~0% hits.
	cfg := Config{SizeBytes: 64 * 1024, LineBytes: 64, Ways: 16}
	c := MustNew(cfg)
	lines := 2 * cfg.SizeBytes / cfg.LineBytes
	for pass := 0; pass < 3; pass++ {
		for l := 0; l < lines; l++ {
			c.Access(uint64(l), false)
		}
	}
	if c.Hits.Value() != 0 {
		t.Errorf("LRU loop over 2x capacity hit %d times", c.Hits.Value())
	}
}

func TestHitRate(t *testing.T) {
	c := MustNew(Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 4})
	if c.HitRate() != 0 {
		t.Error("empty cache hit rate non-zero")
	}
	c.Access(0, false)
	c.Access(0, false)
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", got)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	// Property: after any access sequence, the number of distinct
	// resident lines is at most capacity.
	f := func(seed int64) bool {
		cfg := Config{SizeBytes: 32 * 64, LineBytes: 64, Ways: 4}
		c := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		inserted := map[uint64]bool{}
		for i := 0; i < 2000; i++ {
			l := uint64(rng.Intn(256))
			c.Access(l, rng.Intn(2) == 0)
			inserted[l] = true
		}
		resident := 0
		for l := range inserted {
			if c.Contains(l) {
				resident++
			}
		}
		return resident <= cfg.SizeBytes/cfg.LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAccessedLineAlwaysResident(t *testing.T) {
	// Property: immediately after Access(l), Contains(l) is true.
	f := func(seed int64) bool {
		c := MustNew(Config{SizeBytes: 16 * 64, LineBytes: 64, Ways: 2})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			l := uint64(rng.Intn(128))
			c.Access(l, false)
			if !c.Contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHitsPlusMissesEqualsAccesses(t *testing.T) {
	c := MustNew(DefaultConfig(MiB))
	rng := rand.New(rand.NewSource(99))
	const n = 10000
	for i := 0; i < n; i++ {
		c.Access(uint64(rng.Intn(1<<16)), rng.Intn(3) == 0)
	}
	if c.Hits.Value()+c.Misses.Value() != n {
		t.Errorf("hits+misses = %d, want %d", c.Hits.Value()+c.Misses.Value(), n)
	}
}

func TestLargerCacheNeverWorse(t *testing.T) {
	// Property (for LRU): a 2x larger cache of the same shape has at
	// least as many hits on any trace (inclusion property holds for
	// fully-LRU same-set-count scaling by ways).
	rng := rand.New(rand.NewSource(5))
	trace := make([]uint64, 20000)
	for i := range trace {
		trace[i] = uint64(rng.Intn(4096))
	}
	small := MustNew(Config{SizeBytes: 128 * 1024, LineBytes: 64, Ways: 8})
	big := MustNew(Config{SizeBytes: 256 * 1024, LineBytes: 64, Ways: 16}) // same set count
	for _, l := range trace {
		small.Access(l, false)
		big.Access(l, false)
	}
	if big.Hits.Value() < small.Hits.Value() {
		t.Errorf("bigger cache hit less: %d < %d", big.Hits.Value(), small.Hits.Value())
	}
}

// TestResetMatchesNew runs one cache through a sequence of sizes,
// smaller and larger than its storage, and requires every reset cache
// to behave exactly like a fresh New of the same configuration: the
// same result for every access and the same counters. Shrinking must
// keep the storage, growing must replace it.
func TestResetMatchesNew(t *testing.T) {
	reused := MustNew(DefaultConfig(8 * MiB))
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{8 * MiB, MiB, 64 << 10, 4 * MiB, 16 * MiB} {
		before := &reused.ways[:1][0]
		if err := reused.Reset(DefaultConfig(size)); err != nil {
			t.Fatal(err)
		}
		if kept := &reused.ways[:1][0] == before; kept != (size <= 8*MiB) {
			t.Errorf("%d B: storage kept = %v", size, kept)
		}
		fresh := MustNew(DefaultConfig(size))
		if reused.NumSets() != fresh.NumSets() {
			t.Fatalf("%d B: %d sets after Reset, New has %d", size, reused.NumSets(), fresh.NumSets())
		}
		for i := 0; i < 200000; i++ {
			line, write := uint64(rng.Intn(1<<18)), rng.Intn(4) == 0
			if got, want := reused.Access(line, write), fresh.Access(line, write); got != want {
				t.Fatalf("%d B, access %d: reset cache %+v, fresh %+v", size, i, got, want)
			}
		}
		if reused.Hits != fresh.Hits || reused.Misses != fresh.Misses || reused.Writebacks != fresh.Writebacks {
			t.Fatalf("%d B: counters diverged", size)
		}
	}
	if err := reused.Reset(Config{SizeBytes: 3}); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if reused.Config() != DefaultConfig(16*MiB) {
		t.Fatal("a rejected Reset changed the cache")
	}
}
