package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProfilerLambdaBeta(t *testing.T) {
	p := NewProfiler(10)
	// 6 refreshes with B>0: 4 of them saw A>0 -> λ = 4/6.
	for i := 0; i < 4; i++ {
		p.Record(true, true)
	}
	for i := 0; i < 2; i++ {
		p.Record(true, false)
	}
	// 4 refreshes with B=0: 3 quiet -> β = 3/4.
	for i := 0; i < 3; i++ {
		p.Record(false, false)
	}
	p.Record(false, true)

	lambda, beta := p.LambdaBeta()
	if lambda != 4.0/6.0 {
		t.Errorf("lambda = %g, want %g", lambda, 4.0/6.0)
	}
	if beta != 0.75 {
		t.Errorf("beta = %g, want 0.75", beta)
	}
	if !p.Done() {
		t.Error("profiler not done after 10 records")
	}
}

func TestProfilerDefaults(t *testing.T) {
	p := NewProfiler(5)
	// Only B>0 refreshes: β defaults to 1 (trust silence).
	p.Record(true, true)
	lambda, beta := p.LambdaBeta()
	if lambda != 1 || beta != 1 {
		t.Errorf("lambda,beta = %g,%g, want 1,1", lambda, beta)
	}
	// Only B=0 refreshes: λ defaults to 1 (trust activity).
	p2 := NewProfiler(5)
	p2.Record(false, false)
	lambda, beta = p2.LambdaBeta()
	if lambda != 1 || beta != 1 {
		t.Errorf("lambda,beta = %g,%g, want 1,1", lambda, beta)
	}
}

func TestWindowCountsObserved(t *testing.T) {
	// The shared counts report an unobserved condition as (0, false);
	// each caller picks its own default (the gate 1, Table I 0).
	var w WindowCounts
	if l, ok := w.Lambda(); l != 0 || ok {
		t.Errorf("empty Lambda = %g,%v, want 0,false", l, ok)
	}
	w.Record(false, true)
	if b, ok := w.Beta(); b != 0 || !ok {
		t.Errorf("Beta = %g,%v, want 0,true", b, ok)
	}
	if l, ok := w.Lambda(); l != 0 || ok {
		t.Errorf("Lambda without B>0 = %g,%v, want 0,false", l, ok)
	}
	w.Record(true, true)
	if l, ok := w.Lambda(); l != 1 || !ok {
		t.Errorf("Lambda = %g,%v, want 1,true", l, ok)
	}
}

func TestProfilerReset(t *testing.T) {
	p := NewProfiler(2)
	p.Record(true, true)
	p.Record(true, true)
	if !p.Done() {
		t.Fatal("not done")
	}
	p.Reset()
	if p.Done() || p.Seen() != 0 {
		t.Error("Reset did not clear progress")
	}
	c := p.Counts()
	if c[1][1] != 0 {
		t.Error("Reset did not clear counts")
	}
}

func TestProfilerProbabilitiesInRange(t *testing.T) {
	// Property: for any record mix, λ and β are valid probabilities and
	// match the definition computed directly from counts.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfiler(int(n) + 1)
		var c [2][2]int64
		for i := 0; i <= int(n); i++ {
			b, a := rng.Intn(2) == 1, rng.Intn(2) == 1
			p.Record(b, a)
			c[b2i(b)][b2i(a)]++
		}
		lambda, beta := p.LambdaBeta()
		if lambda < 0 || lambda > 1 || beta < 0 || beta > 1 {
			return false
		}
		if bp := c[1][0] + c[1][1]; bp > 0 && lambda != float64(c[1][1])/float64(bp) {
			return false
		}
		if bz := c[0][0] + c[0][1]; bz > 0 && beta != float64(c[0][0])/float64(bz) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfilerPanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewProfiler(0) did not panic")
		}
	}()
	NewProfiler(0)
}
