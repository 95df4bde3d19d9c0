package workload

import (
	"reflect"
	"testing"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range Names() {
		p := MustGet(name)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile %q has Name %q", name, p.Name)
		}
	}
}

func TestPaperOrderCoversAllProfiles(t *testing.T) {
	order := PaperOrder()
	if len(order) != len(Names()) {
		t.Fatalf("PaperOrder has %d entries, profiles %d", len(order), len(Names()))
	}
	seen := map[string]bool{}
	for _, n := range order {
		if _, err := Get(n); err != nil {
			t.Errorf("PaperOrder name %q: %v", n, err)
		}
		if seen[n] {
			t.Errorf("PaperOrder repeats %q", n)
		}
		seen[n] = true
	}
}

func TestIntensiveClassification(t *testing.T) {
	// Table II: six intensive, six non-intensive.
	intensive := 0
	for _, n := range Names() {
		if MustGet(n).Intensive {
			intensive++
		}
	}
	if intensive != 6 {
		t.Errorf("intensive count = %d, want 6", intensive)
	}
	for _, n := range []string{"GemsFDTD", "lbm", "bwaves", "gcc", "libquantum", "cactusADM"} {
		if !MustGet(n).Intensive {
			t.Errorf("%s should be intensive", n)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nosuchbench"); err == nil {
		t.Error("Get accepted unknown benchmark")
	}
}

func TestMixesWellFormed(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 6 {
		t.Fatalf("got %d mixes, want 6", len(mixes))
	}
	for _, m := range mixes {
		if len(m.Members) != 4 {
			t.Errorf("%s has %d members, want 4", m.Name, len(m.Members))
		}
		for _, b := range m.Members {
			if _, err := Get(b); err != nil {
				t.Errorf("%s member %q: %v", m.Name, b, err)
			}
		}
	}
	// WL1 must be all-intensive (the paper's most intensive mix).
	wl1, err := GetMix("WL1")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range wl1.Members {
		if !MustGet(b).Intensive {
			t.Errorf("WL1 member %s not intensive", b)
		}
	}
	if _, err := GetMix("WL9"); err == nil {
		t.Error("GetMix accepted unknown mix")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, name := range Names() {
		a := Take(NewGenerator(MustGet(name), 11), 2000)
		b := Take(NewGenerator(MustGet(name), 11), 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", name)
		}
		c := Take(NewGenerator(MustGet(name), 12), 2000)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical traces", name)
		}
	}
}

func TestGeneratorLinesInRegions(t *testing.T) {
	for _, name := range Names() {
		p := MustGet(name)
		g := NewGenerator(p, 3)
		for i := 0; i < 5000; i++ {
			r, ok := g.Next()
			if !ok {
				t.Fatalf("%s: generator ended", name)
			}
			line := int64(r.Line)
			inHot := line >= 0 && line < int64(p.WSLines)
			inStream := line >= streamBase && line < streamBase+int64(p.FootprintLines)
			if !inHot && !inStream {
				t.Fatalf("%s: line %d outside both regions", name, line)
			}
		}
	}
}

func TestGeneratorIntensityOrdering(t *testing.T) {
	// Mean instructions per access must be much lower for the streaming
	// intensive benchmarks than for sparse ones.
	meanGap := func(name string) float64 {
		g := NewGenerator(MustGet(name), 5)
		total := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			r, _ := g.Next()
			total += float64(r.Gap)
		}
		return total / n
	}
	lbm, gobmk := meanGap("lbm"), meanGap("gobmk")
	if lbm*50 > gobmk {
		t.Errorf("lbm gap %.1f not ≫ smaller than gobmk gap %.1f", lbm, gobmk)
	}
}

func TestGeneratorReadFraction(t *testing.T) {
	p := MustGet("libquantum")
	g := NewGenerator(p, 9)
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		r, _ := g.Next()
		if !r.Write {
			reads++
		}
	}
	got := float64(reads) / n
	if got < p.ReadFrac-0.03 || got > p.ReadFrac+0.03 {
		t.Errorf("read fraction = %.3f, want ≈%.2f", got, p.ReadFrac)
	}
}

func TestGeneratorSequentialDeltas(t *testing.T) {
	// libquantum streams with delta 1: consecutive streaming lines must
	// be dominated by +1 steps.
	g := NewGenerator(MustGet("libquantum"), 17)
	var prev uint64
	havePrev := false
	plusOne, total := 0, 0
	for i := 0; i < 20000; i++ {
		r, _ := g.Next()
		if int64(r.Line) < streamBase {
			continue
		}
		if havePrev {
			total++
			if r.Line == prev+1 {
				plusOne++
			}
		}
		prev, havePrev = r.Line, true
	}
	if total == 0 {
		t.Fatal("no streaming accesses observed")
	}
	if frac := float64(plusOne) / float64(total); frac < 0.9 {
		t.Errorf("+1 delta fraction = %.2f, want ≥0.9", frac)
	}
}

func TestSliceStream(t *testing.T) {
	recs := []Record{{Gap: 1, Line: 2}, {Gap: 3, Line: 4, Write: true}}
	s := NewSliceStream(recs)
	got := Take(s, 10)
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("Take = %+v", got)
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream still produced records")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != recs[0] {
		t.Error("Reset did not rewind")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := MustGet("lbm")
	cases := []func(p *Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.StreamFrac = 1.5 },
		func(p *Profile) { p.ReadFrac = -0.1 },
		func(p *Profile) { p.WSLines = 0 },
		func(p *Profile) { p.FootprintLines = 0 },
		func(p *Profile) { p.Deltas = nil },
		func(p *Profile) { p.Deltas = []DeltaChoice{{Seq: []int64{1}, Weight: -1}} },
		func(p *Profile) { p.Deltas = []DeltaChoice{{Seq: []int64{1, 2, 3, 4}, Weight: 1}} },
		func(p *Profile) { p.Deltas = []DeltaChoice{{Weight: 1}} },
		func(p *Profile) { p.OffMeanInsts = 100; p.OnMeanInsts = 0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted mutated profile", i)
		}
	}
}

func TestOnOffPhasesProduceLongGaps(t *testing.T) {
	// Benchmarks with OFF phases must occasionally emit gaps comparable
	// to OffMeanInsts; always-on benchmarks must not.
	p := MustGet("bzip2")
	g := NewGenerator(p, 41)
	maxGap := uint32(0)
	for i := 0; i < 30000; i++ {
		r, _ := g.Next()
		if r.Gap > maxGap {
			maxGap = r.Gap
		}
	}
	if float64(maxGap) < p.OffMeanInsts/2 {
		t.Errorf("bzip2 max gap %d, want ≥ %g", maxGap, p.OffMeanInsts/2)
	}

	lq := MustGet("libquantum")
	g = NewGenerator(lq, 41)
	maxGap = 0
	for i := 0; i < 30000; i++ {
		r, _ := g.Next()
		if r.Gap > maxGap {
			maxGap = r.Gap
		}
	}
	if float64(maxGap) > lq.OnGapMean*100 {
		t.Errorf("libquantum max gap %d suspiciously long", maxGap)
	}
}

func TestGeneratorGapDistributionMean(t *testing.T) {
	// For always-on profiles the mean gap should be near OnGapMean.
	p := MustGet("perlbench")
	g := NewGenerator(p, 7) // fixed seed; this test asserts a distribution property
	var sum float64
	const n = 30000
	for i := 0; i < n; i++ {
		r, _ := g.Next()
		sum += float64(r.Gap)
	}
	mean := sum / n
	if mean < p.OnGapMean*0.9 || mean > p.OnGapMean*1.1 {
		t.Errorf("perlbench mean gap = %.0f, want ≈%.0f", mean, p.OnGapMean)
	}
}

// TestHotHistoryRingBounded drives a profile with a small working set
// far past the point where its reuse history ring fills and wraps: the
// ring, storage included, never holds more than min(WSLines,
// hotHistCap) lines.
func TestHotHistoryRingBounded(t *testing.T) {
	for _, ws := range []int{100, 3000, 3 * hotHistCap} {
		p := MustGet(Names()[0])
		p.WSLines = ws
		p.StreamFrac = 0
		limit := min(ws, hotHistCap)
		g := NewGenerator(p, 7)
		for i := 0; i < 2*limit+5000; i++ {
			g.Next()
			if len(g.hotHist) > limit || cap(g.hotHist) > limit {
				t.Fatalf("WSLines %d: ring len %d cap %d after %d records, limit %d",
					ws, len(g.hotHist), cap(g.hotHist), i+1, limit)
			}
		}
		if ws < hotHistCap && len(g.hotHist) != limit {
			t.Errorf("WSLines %d: ring holds %d lines after wrapping, want %d", ws, len(g.hotHist), limit)
		}
	}
}

// TestResetGeneratorMatchesFresh reuses one generator across every
// profile, the zoo's included, each time with its history left full by
// the previous one: after Reset it must yield the same stream as a
// fresh NewGenerator.
func TestResetGeneratorMatchesFresh(t *testing.T) {
	names := append(Names(), ZooNames()...)
	g := NewGenerator(MustGet(names[0]), 1)
	for pass := 0; pass < 2; pass++ {
		for i, name := range names {
			seed := int64(1000*pass + i)
			p := MustGet(name)
			g.Reset(p, seed)
			got, want := Take(g, 20000), Take(NewGenerator(p, seed), 20000)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: a reset generator's stream differs from a fresh one", name, seed)
			}
		}
	}
}
