package core

// Profiler is the Pattern Profiler of paper §IV-B. During a training
// period it classifies each refresh of a rank into the four (B, A)
// categories — B is the number of requests in the observational window
// before the refresh, A the number of read requests in the window after
// it — and at the end of training emits the two conditional
// probabilities λ = P{A>0 | B>0} and β = P{A=0 | B=0} (Eqs. 1-2) that
// gate prefetching.
type Profiler struct {
	counts WindowCounts
	target int
	seen   int
}

// WindowCounts tallies refreshes by the paper's (B, A) classification
// (§IV-B): [b][a] counts refreshes with (B>0)==b and (A>0)==a, where B
// is the number of requests in the observational window before the
// refresh and A the number of reads in the window after it.
type WindowCounts [2][2]int64

// Record classifies one refresh.
func (w *WindowCounts) Record(bPositive, aPositive bool) {
	w[b2i(bPositive)][b2i(aPositive)]++
}

// Lambda reports λ = P{A>0 | B>0} (Eq. 1). observed is false, and
// lambda 0, when no refresh had B>0.
func (w WindowCounts) Lambda() (lambda float64, observed bool) {
	return ratio(w[1][1], w[1][0]+w[1][1])
}

// Beta reports β = P{A=0 | B=0} (Eq. 2). observed is false, and beta
// 0, when no refresh had B=0.
func (w WindowCounts) Beta() (beta float64, observed bool) {
	return ratio(w[0][0], w[0][0]+w[0][1])
}

// ratio reports num/den, and false when den is 0.
func ratio(num, den int64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return float64(num) / float64(den), true
}

// NewProfiler builds a profiler whose training period spans the given
// number of refresh operations (the paper uses 50).
func NewProfiler(targetRefreshes int) *Profiler {
	if targetRefreshes <= 0 {
		panic("core: training period must cover at least one refresh")
	}
	return &Profiler{target: targetRefreshes}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Record classifies one refresh.
func (p *Profiler) Record(bPositive, aPositive bool) {
	p.counts.Record(bPositive, aPositive)
	p.seen++
}

// Done reports whether the training period has covered enough refreshes.
func (p *Profiler) Done() bool { return p.seen >= p.target }

// Seen reports the number of refreshes classified so far.
func (p *Profiler) Seen() int { return p.seen }

// Counts returns the category occurrence counts indexed [B>0][A>0].
func (p *Profiler) Counts() WindowCounts { return p.counts }

// LambdaBeta computes the two conditional probabilities. When a
// condition never occurred, the corresponding probability defaults to 1:
// an unobserved B>0 case means "trust observed requests" (prefetch) and
// an unobserved B=0 case means "trust silence" (do not prefetch) — the
// conservative choices for each gate.
func (p *Profiler) LambdaBeta() (lambda, beta float64) {
	lambda, ok := p.counts.Lambda()
	if !ok {
		lambda = 1
	}
	if beta, ok = p.counts.Beta(); !ok {
		beta = 1
	}
	return lambda, beta
}

// Reset starts a new training period.
func (p *Profiler) Reset() {
	p.counts = WindowCounts{}
	p.seen = 0
}
