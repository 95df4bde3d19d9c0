package workload

import (
	"math"
	"math/rand"
)

// Generator produces an infinite deterministic trace for a Profile. It
// implements Stream.
type Generator struct {
	p   Profile
	rng *rand.Rand

	// Phase state. phaseLeft counts instructions remaining in the
	// current phase; alwaysOn profiles never leave ON.
	on        bool
	phaseLeft int64

	// Streaming state: position in the streaming region and the active
	// delta behaviour.
	streamPos    int64
	delta        DeltaChoice
	deltaStep    int
	deltaOpsLeft int

	// Hot working-set walker: a sequential pointer plus a ring of
	// recently accessed lines that reuse accesses draw from. The ring
	// grows by appending until it holds histLimit lines, then wraps;
	// hotHistPos is the slot the next line goes to.
	hotPos     int64
	hotHist    []uint64
	hotHistPos int
	// reuseSpan is ln(dMax/hotReuseMin), where reuse distances range
	// over [hotReuseMin, dMax] and dMax is the working set, at least
	// 2*hotReuseMin.
	reuseSpan float64
}

// hotHistCap bounds the reuse history (and therefore the longest reuse
// distance the generator can produce).
const hotHistCap = 1 << 17

// histLimit is the most lines the reuse history ring of profile p
// holds: its working set, at most hotHistCap.
func histLimit(p Profile) int { return min(p.WSLines, hotHistCap) }

// hotReuseFrac is the fraction of hot accesses that revisit an earlier
// line instead of advancing the sequential pointer.
const hotReuseFrac = 0.7

// hotReuseMin is the shortest reuse distance (in hot accesses).
const hotReuseMin = 2048.0

// streamBase is the line offset of the streaming region: far above any
// working set so the two never alias.
const streamBase = int64(1) << 34

// segmentOps is how many accesses a generator keeps one delta behaviour
// before re-drawing (real applications switch stride patterns between
// loops).
const segmentOps = 256

// NewGenerator builds a generator for profile p seeded with seed.
// Identical (p, seed) pairs produce identical traces. It panics on an
// invalid profile: profiles are static configuration.
func NewGenerator(p Profile, seed int64) *Generator {
	g := &Generator{}
	g.Reset(p, seed)
	return g
}

// Reset turns g into the generator NewGenerator(p, seed) builds, so it
// yields the identical trace, but keeps g's random source and reuse
// history storage: re-seeding a source gives the same draws as a new
// one seeded alike. It panics on an invalid profile, as NewGenerator
// does.
func (g *Generator) Reset(p Profile, seed int64) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rng := g.rng
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	dMax := max(float64(p.WSLines), hotReuseMin*2)
	*g = Generator{p: p, rng: rng, on: true, hotHist: g.hotHist[:0], reuseSpan: math.Log(dMax / hotReuseMin)}
	if p.OffMeanInsts > 0 {
		g.phaseLeft = g.expInt(p.OnMeanInsts)
	}
	g.pickDelta()
}

// Profile reports the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// expInt draws an exponential length with the given mean, at least 1.
func (g *Generator) expInt(mean float64) int64 {
	v := int64(g.rng.ExpFloat64() * mean)
	if v < 1 {
		v = 1
	}
	return v
}

// pickDelta re-draws the active streaming delta behaviour.
func (g *Generator) pickDelta() {
	total := 0.0
	for _, d := range g.p.Deltas {
		total += d.Weight
	}
	x := g.rng.Float64() * total
	for _, d := range g.p.Deltas {
		x -= d.Weight
		if x < 0 {
			g.delta = d
			break
		}
	}
	g.deltaStep = 0
	g.deltaOpsLeft = segmentOps
}

// nextStreamLine advances the streaming walker one access.
func (g *Generator) nextStreamLine() uint64 {
	if g.deltaOpsLeft == 0 {
		g.pickDelta()
	}
	g.deltaOpsLeft--
	if g.delta.Random {
		g.streamPos = g.rng.Int63n(int64(g.p.FootprintLines))
	} else {
		g.streamPos += g.delta.Seq[g.deltaStep]
		g.deltaStep = (g.deltaStep + 1) % len(g.delta.Seq)
		if g.streamPos >= int64(g.p.FootprintLines) || g.streamPos < 0 {
			g.streamPos = 0
		}
	}
	return uint64(streamBase + g.streamPos)
}

// recordHot pushes a line into the reuse history ring. Until the ring
// is full it appends, growing its storage by doubling up to the ring's
// limit, so a generator that makes few hot accesses holds few lines.
// Reads only reach slots already written (nextHotLine draws distances
// below the ring's length), so the trace is the same as with the ring
// allocated whole.
func (g *Generator) recordHot(line uint64) {
	limit := histLimit(g.p)
	if n := len(g.hotHist); n < limit {
		if n == cap(g.hotHist) {
			grown := make([]uint64, n, min(max(2*n, 1024), limit))
			copy(grown, g.hotHist)
			g.hotHist = grown
		}
		g.hotHist = append(g.hotHist, line)
	} else {
		g.hotHist[g.hotHistPos] = line
	}
	g.hotHistPos = (g.hotHistPos + 1) % limit
}

// nextHotLine advances the hot working-set walker. Most accesses revisit
// a line accessed d hot-accesses ago, with d drawn log-uniformly between
// hotReuseMin and the working-set size — the LRU stack distance is then
// roughly proportional to d, which is what makes LLC capacity matter
// smoothly across the paper's 1-8 MB sweep (Figs 12-14). The rest
// advance a sequential pointer through the working set.
func (g *Generator) nextHotLine() uint64 {
	if len(g.hotHist) > 64 && g.rng.Float64() < hotReuseFrac {
		d := int(hotReuseMin * math.Exp(g.rng.Float64()*g.reuseSpan))
		if d >= len(g.hotHist) {
			d = len(g.hotHist) - 1
		}
		if d < 1 {
			d = 1
		}
		idx := g.hotHistPos - 1 - d
		idx %= len(g.hotHist)
		if idx < 0 {
			idx += len(g.hotHist)
		}
		line := g.hotHist[idx]
		g.recordHot(line)
		return line
	}
	g.hotPos++
	if g.hotPos >= int64(g.p.WSLines) {
		g.hotPos = 0
	}
	line := uint64(g.hotPos)
	g.recordHot(line)
	return line
}

// Next implements Stream. The generator is infinite: ok is always true.
func (g *Generator) Next() (Record, bool) {
	gap := int64(0)

	// Cross OFF phases, accumulating their instructions as gap.
	if g.p.OffMeanInsts > 0 {
		for {
			if g.on {
				// Draw the spacing to the next access inside ON.
				d := g.expInt(g.p.OnGapMean + 1)
				if d <= g.phaseLeft {
					g.phaseLeft -= d
					gap += d
					break
				}
				// ON phase ends before the next access: burn it and go OFF.
				gap += g.phaseLeft
				g.on = false
				g.phaseLeft = g.expInt(g.p.OffMeanInsts)
				continue
			}
			gap += g.phaseLeft
			g.on = true
			g.phaseLeft = g.expInt(g.p.OnMeanInsts)
		}
	} else {
		gap = g.expInt(g.p.OnGapMean + 1)
	}

	if gap > int64(^uint32(0)) {
		gap = int64(^uint32(0))
	}

	var line uint64
	if g.rng.Float64() < g.p.StreamFrac {
		line = g.nextStreamLine()
	} else {
		line = g.nextHotLine()
	}
	write := g.rng.Float64() >= g.p.ReadFrac
	return Record{Gap: uint32(gap), Line: line, Write: write}, true
}
