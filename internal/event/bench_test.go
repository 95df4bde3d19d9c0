package event

import "testing"

// Microbenchmarks for the calendar-queue hot paths. Steady-state
// schedule+dispatch must be allocation-free (the pool recycles event
// objects); run with -benchmem to verify allocs/op stays at 0.
// `make microbench` runs them (docs/PERFORMANCE.md §4).

// BenchmarkScheduleStepNear measures the common case: self-renewing
// events within the calendar window (DRAM command and core-step
// cadence).
func BenchmarkScheduleStepNear(b *testing.B) {
	var q Queue
	var fn func(now Cycle)
	fn = func(now Cycle) { q.Schedule(now+37, fn) }
	for i := 0; i < 64; i++ {
		q.Schedule(Cycle(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

// BenchmarkScheduleStepFar measures the overflow-heap path: events
// beyond the calendar window (tREFI-scale cadence).
func BenchmarkScheduleStepFar(b *testing.B) {
	var q Queue
	var fn func(now Cycle)
	fn = func(now Cycle) { q.Schedule(now+6240, fn) }
	for i := 0; i < 16; i++ {
		q.Schedule(Cycle(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

// BenchmarkScheduleCancel measures schedule-then-cancel churn (wake
// superseding, speculative timeouts).
func BenchmarkScheduleCancel(b *testing.B) {
	var q Queue
	nop := func(Cycle) {}
	var fn func(now Cycle)
	fn = func(now Cycle) { q.Schedule(now+1, fn) }
	q.Schedule(0, fn) // advances time so cancelled slots are reclaimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Cancel(q.Schedule(q.Now()+100, nop))
		q.Step()
	}
}

// BenchmarkChainedSleep measures a chained wake re-arming itself each
// dispatch — the controller's sleep cadence through idle stretches.
func BenchmarkChainedSleep(b *testing.B) {
	var q Queue
	var fn func(now Cycle)
	fn = func(now Cycle) { q.ScheduleChained(now+97, fn) }
	q.ScheduleChained(97, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

// BenchmarkStepWithIdleChain measures regular dispatch while one
// chained wake sleeps far in the future — the bookkeeping tax the
// chain support adds to every Step of a busy queue.
func BenchmarkStepWithIdleChain(b *testing.B) {
	var q Queue
	var fn func(now Cycle)
	fn = func(now Cycle) { q.Schedule(now+37, fn) }
	for i := 0; i < 64; i++ {
		q.Schedule(Cycle(i), fn)
	}
	q.ScheduleChained(1<<40, func(Cycle) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}
