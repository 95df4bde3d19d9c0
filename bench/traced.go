package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"ropsim/internal/runner"
)

// Rep counts of the traced pass when no time box is set.
const (
	profileReps = 20
	tracedReps  = 5
)

// minCoverage is the share of profile samples that must land in a
// named layer for the per-layer numbers to count.
const minCoverage = 0.90

// layerRun is one workload's traced pass.
type layerRun struct {
	stats    runStats // rep bookkeeping: attempts, failures, digests
	metrics  map[string]float64
	coverage float64
	spans    *tracer // every traced rep's spans, merged
}

// tracePass measures one workload layer by layer. A profiled pass of
// untraced reps gives each layer's share of CPU samples; a traced pass
// runs the same reps through composeRun and times the calls into each
// layer. Counts come from the traced reps' stats snapshots and the
// harness's own counters. A traced rep whose digest differs is counted
// as failed and its numbers are dropped.
func tracePass(w benchWorkload, o options, cost timerCost) (*layerRun, error) {
	lr := &layerRun{stats: runStats{w: w}, spans: newTracer()}
	r := &lr.stats
	if err := r.setup(o, nil); err != nil {
		return nil, err
	}
	pool := r.sess.pool
	var pool0, pool1 runner.Stats
	if pool != nil {
		pool0 = pool.Stats()
	}

	// Neither pass forces collections between reps: the profile would
	// charge the forced ones to the runtime, and users never force them.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, w.name+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	gc0 := gcCycles()
	var walls []float64 // untraced, ms
	b := o.budget(profileReps, 5, 0.5)
	profiled := 0
	for ; !b.done(profiled); profiled++ {
		start := time.Now()
		out, err := r.sess.rep(nil)
		wall := time.Since(start)
		if r.record(out, err) {
			walls = append(walls, ms(wall))
		}
	}
	pprof.StopCPUProfile()
	gcs := gcCycles() - gc0
	if pool != nil {
		pool1 = pool.Stats()
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}
	shares, coverage, err := layerShares(profPath)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lr.coverage = coverage

	var tracedWalls []float64
	var traced outcome // every passing traced rep's snapshots
	b = o.budget(tracedReps, 2, 0.5)
	for n := 0; !b.done(n); n++ {
		t := newTracer()
		var out outcome
		err := t.span("rep", func() (err error) {
			out, err = r.sess.rep(t)
			return err
		})
		if r.record(out, err) {
			lr.spans.merge(t)
			tracedWalls = append(tracedWalls, ms(t.total("rep")))
			traced.snaps = append(traced.snaps, out.snaps...)
		}
	}
	if len(tracedWalls) == 0 || len(walls) == 0 {
		return lr, nil
	}

	t := lr.spans
	snaps := traced.snaps
	reps := float64(len(tracedWalls))
	reqs := traced.requests()
	_, runs := t.selfTime("sim.run", cost)
	snapSelf, _ := t.selfTime("stats.snapshot", cost)
	writeSelf, _ := t.selfTime("stats.write_json", cost)
	repTotal := float64(t.total("rep"))
	var utilization, tasksFailed float64
	if pool != nil {
		busy := float64(pool1.Busy - pool0.Busy)
		utilization = busy / (float64(pool.Jobs()) * sum(walls) * float64(time.Millisecond))
		tasksFailed = float64(pool.Stats().Failed - pool0.Failed)
	}
	lr.metrics = map[string]float64{
		"event.steps_per_request":     float64(t.steps) / reqs,
		"event.step_self_ns":          t.perCall("event.step", cost),
		"event.cpu_share":             shares["event"],
		"memctrl.enqueue_ns":          t.perCall("memctrl.enqueue", cost),
		"memctrl.sched.cpu_share":     shares["memctrl.sched"],
		"memctrl.refresh.cpu_share":   shares["memctrl.refresh"],
		"memctrl.wake.cpu_share":      shares["memctrl.wake"],
		"memctrl.rejected_frac":       ratio(float64(t.memRejected), float64(t.memAttempts)),
		"memctrl.read_latency_cycles": ratio(sumField(snaps, "memctrl.read_latency", "sum"), sumField(snaps, "memctrl.read_latency", "count")),
		"rop.cpu_share":               shares["rop"],
		"rop.prefetch_launches":       sumValue(snaps, "memctrl.rop.prefetch_launches") / reps,
		"rop.fill_useful_frac":        ratio(sumValue(snaps, "memctrl.sram_served"), sumValue(snaps, "memctrl.prefetch_fills_issued")),
		"rop.sram_hit_rate":           ratio(sumValue(snaps, "memctrl.rop.sram.hits"), sumValue(snaps, "memctrl.rop.sram.lookups")),
		"dram.cpu_share":              shares["dram"],
		"dram.commands_per_request":   traced.commands() / reqs,
		"cpu.cpu_share":               shares["cpu"],
		"cpu.load_done_ns":            t.perCall("cpu.load_done", cost),
		"workload.next_ns":            t.perCall("workload.next", cost),
		"workload.cpu_share":          shares["workload"],
		"trace.load_share":            float64(t.total("trace.load")) / repTotal,
		"trace.cpu_share":             shares["trace"],
		"llc.access_ns":               t.perCall("llc.access", cost),
		"llc.cpu_share":               shares["llc"],
		"llc.hit_rate":                ratio(sumValue(snaps, "llc.hits"), sumValue(snaps, "llc.hits")+sumValue(snaps, "llc.misses")),
		"addr.map_ns":                 t.perCall("addr.map", cost),
		"addr.cpu_share":              shares["addr"],
		"sim.cpu_share":               shares["sim"],
		"stats.snapshot_us":           (snapSelf + writeSelf) / float64(runs) / 1e3,
		"stats.cpu_share":             shares["stats"],
		"runner.utilization":          utilization,
		"runner.tasks_failed":         tasksFailed,
		"artifact.write_share":        float64(t.total("artifact.write")) / repTotal,
		"runtime.cpu_share":           shares["runtime"],
		"gc.cycles_per_rep":           gcs / float64(profiled),
		"tracing.timer_ns":            cost.outer,
		"tracing.overhead_pct":        (median(tracedWalls)/median(walls) - 1) * 100,
		"tracing.profile_coverage":    coverage,
	}
	return lr, nil
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// gcCycles reads the count of completed GC cycles.
func gcCycles() float64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
