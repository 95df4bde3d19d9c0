package ropsim

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"ropsim/internal/analysis"
	"ropsim/internal/cache"
	"ropsim/internal/dram"
	"ropsim/internal/runner"
	"ropsim/internal/stats"
	"ropsim/internal/trace"
)

// hasTraceSource reports whether any benchmark name is a "trace:<path>"
// trace source. Such configs must run locally: the trace file lives on
// this machine and its contents are not part of the wire config.
func hasTraceSource(benches []string) bool {
	for _, b := range benches {
		if trace.IsSource(b) {
			return true
		}
	}
	return false
}

// ExpOptions scales the experiment harness. The paper simulates 1 B
// instructions per benchmark; the harness defaults to a few million,
// which still covers hundreds of refresh intervals per run — enough for
// the statistics every artifact needs — while regenerating the whole
// evaluation in minutes.
type ExpOptions struct {
	// Instructions is the per-core budget of single-core runs.
	Instructions int64
	// MultiInstructions is the per-core budget of 4-core runs.
	MultiInstructions int64
	// TrainRefreshes is the ROP training period (0 = the paper's 50).
	TrainRefreshes int
	// Seed drives workload generation and the prefetch gate.
	Seed int64
	// Benches restricts the benchmark set (nil = the paper's twelve).
	Benches []string
	// Mixes restricts the 4-core workloads (nil = WL1-WL6).
	Mixes []Mix
	// SRAMSizes lists the buffer capacities of Figs 7-9.
	SRAMSizes []int
	// LLCSizesMiB lists the LLC sweep sizes of Figs 12-14.
	LLCSizesMiB []int
	// DensitiesGb restricts the die-density points of the Policies sweep
	// (nil = every dram.Densities() point).
	DensitiesGb []int
	// Progress, when non-nil, receives one line per completed run.
	// Workers log concurrently; lines are serialized but their order is
	// scheduling-dependent. The rendered tables are not.
	Progress io.Writer
	// Jobs is the worker count each experiment fans its independent
	// simulations across: 0 selects GOMAXPROCS, 1 forces serial
	// execution. Tables are byte-identical regardless of Jobs — results
	// are keyed by submission index, never completion order (the
	// serial-vs-parallel equivalence test enforces this).
	Jobs int
	// Ctx, when non-nil, cancels in-flight experiments: queued runs are
	// skipped and the experiment returns the context's error.
	Ctx context.Context
	// Pool, when non-nil, schedules every batch and accumulates runner
	// statistics (runs, wall time, speedup vs serial) across
	// experiments; cmd/ropexp shares one pool across the evaluation.
	// Nil = each experiment uses a private pool of Jobs workers.
	Pool *runner.Pool
	// Artifact, when non-nil, collects every completed run's metric
	// snapshot under its run label (the -stats-out machine-readable
	// artifact). Workers record concurrently; the serialized artifact is
	// sorted by label and therefore independent of Jobs.
	Artifact *Artifact
	// Journal is the run store every journal-eligible run goes through:
	// a run whose config hash is already stored (or in flight) is served
	// instead of simulated again, so each distinct config runs once for
	// the store's lifetime. cmd/ropexp shares one across the campaign,
	// file-backed under -journal (and -resume). Nil = each experiment
	// uses a private in-memory store. Capture-bearing and trace-driven
	// runs bypass it and always simulate.
	Journal *Journal
	// Remote, when non-nil, executes runs through a distributed
	// campaign coordinator (cmd/ropexp -serve) instead of in-process.
	// Only journal-eligible runs are remotable: capture-bearing and
	// trace-driven configs always run locally, because their payloads
	// do not round-trip the wire format. Results coming back remote
	// are journaled and recorded exactly like local ones, so the
	// artifact is byte-identical either way.
	Remote func(ctx context.Context, label string, cfg Config) (*Result, error)
	// Standard names the DRAM standard every run simulates (dram.Lookup
	// names; empty = the paper's DDR4-1600). CrossStandard ignores it and
	// sweeps all registered standards instead.
	Standard string
	// RunTimeout bounds each simulation's wall-clock time; the in-run
	// watchdog aborts past-deadline runs with a diagnostic dump.
	RunTimeout time.Duration
	// Check validates every DRAM command of every run against the JEDEC
	// timing checker, failing the run on the first violation.
	Check bool
}

// FullOptions returns the experiment scale used for EXPERIMENTS.md.
func FullOptions() ExpOptions {
	return ExpOptions{
		Instructions:      4_000_000,
		MultiInstructions: 2_000_000,
		Seed:              1,
		SRAMSizes:         []int{16, 32, 64, 128},
		LLCSizesMiB:       []int{1, 2, 4, 8},
	}
}

// QuickOptions returns a reduced scale for smoke tests and benchmarks.
func QuickOptions() ExpOptions {
	o := FullOptions()
	o.Instructions = 300_000
	o.MultiInstructions = 120_000
	o.TrainRefreshes = 8
	return o
}

func (o *ExpOptions) benches() []string {
	if len(o.Benches) > 0 {
		return o.Benches
	}
	return Benchmarks()
}

func (o *ExpOptions) mixes() []Mix {
	if len(o.Mixes) > 0 {
		return o.Mixes
	}
	return Mixes()
}

// progressMu serializes Progress writes from concurrent workers.
var progressMu sync.Mutex

func (o *ExpOptions) logf(format string, args ...any) {
	if o.Progress != nil {
		progressMu.Lock()
		fmt.Fprintf(o.Progress, format+"\n", args...)
		progressMu.Unlock()
	}
}

// pool returns the scheduler for one experiment: the shared Pool when
// set, otherwise a private pool of Jobs workers.
func (o *ExpOptions) pool() *runner.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return runner.New(o.Jobs)
}

func (o *ExpOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// robustness applies the harness-wide fault-tolerance knobs to cfg.
func (o *ExpOptions) robustness(cfg *Config) {
	cfg.RunTimeout = o.RunTimeout
	cfg.Check = o.Check
	cfg.Standard = o.Standard
}

// single builds a single-core config for bench.
func (o *ExpOptions) single(bench string, mode Mode) Config {
	cfg := Default(bench)
	cfg.Mode = mode
	cfg.Instructions = o.Instructions
	cfg.Seed = o.Seed
	cfg.ROPTrainRefreshes = o.TrainRefreshes
	o.robustness(&cfg)
	return cfg
}

// multi builds a 4-core config for a mix.
func (o *ExpOptions) multi(members []string, mode Mode, rankPartition bool) Config {
	cfg := Default(members...)
	cfg.Mode = mode
	cfg.RankPartition = rankPartition
	cfg.Instructions = o.MultiInstructions
	cfg.Seed = o.Seed
	cfg.ROPTrainRefreshes = o.TrainRefreshes
	o.robustness(&cfg)
	return cfg
}

// runOne executes one simulation, records its metric snapshot in the
// artifact (when one is attached) and logs its completion. A
// journal-eligible run goes through the run store, which simulates each
// distinct config once; a repeat is served from it, with the stored
// snapshot recorded under this run's label. Stored snapshots
// round-trip JSON exactly, so a served run writes the same artifact
// bytes as a simulated one.
func (o *ExpOptions) runOne(label string, cfg Config) (*Result, error) {
	eligible := !cfg.Capture && !cfg.CaptureTraces && cfg.Traces == nil && !hasTraceSource(cfg.Benches)
	run := func() (*Result, error) {
		if o.Remote != nil && eligible {
			return o.Remote(o.ctx(), label, cfg)
		}
		return RunCtx(o.ctx(), cfg)
	}
	var res *Result
	var served bool
	var err error
	if eligible {
		res, served, err = o.Journal.do(ConfigHash(cfg), label, run)
	} else {
		res, err = run()
	}
	if err != nil {
		return nil, err
	}
	if o.Artifact != nil {
		o.Artifact.Record(label, res.Metrics)
	}
	if served {
		o.logf("  %-40s served from the run store", label)
	} else {
		o.logf("  %-40s ipc0=%.4f elapsed=%d", label, res.Cores[0].IPC, res.ElapsedBus)
	}
	return res, nil
}

// task wraps one (label, Config) run for batch submission. The runner
// wraps any error with the label. An experiment called without a
// Journal gets a private store with its first task, so its repeats
// run once.
func (o *ExpOptions) task(label string, cfg Config) runner.Task[*Result] {
	if o.Journal == nil {
		o.Journal = &Journal{}
	}
	return runner.Task[*Result]{Label: label, Run: func(context.Context) (*Result, error) {
		return o.runOne(label, cfg)
	}}
}

// runBatch fans the tasks across the experiment's pool and returns the
// results in submission order.
func (o *ExpOptions) runBatch(tasks []runner.Task[*Result]) ([]*Result, error) {
	return runner.Run(o.ctx(), o.pool(), tasks)
}

// Fig1 regenerates Figure 1: baseline vs idealized no-refresh IPC and
// energy, i.e. the refresh overhead bound.
func Fig1(o ExpOptions) (*Table, error) {
	t := &Table{ID: "fig1", Title: "Refresh overhead: baseline vs no-refresh (per benchmark)",
		Header: []string{"bench", "ipc_base", "ipc_noref", "perf_degradation_%", "energy_base_J", "energy_noref_J", "extra_energy_%"}}
	benches := o.benches()
	tasks := make([]runner.Task[*Result], 0, 2*len(benches))
	for _, b := range benches {
		tasks = append(tasks,
			o.task("fig1/"+b+"/base", o.single(b, ModeBaseline)),
			o.task("fig1/"+b+"/noref", o.single(b, ModeNoRefresh)))
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	var perf, energy stats.Mean
	for i, b := range benches {
		rb, rn := results[2*i], results[2*i+1]
		deg := (rn.Cores[0].IPC - rb.Cores[0].IPC) / rn.Cores[0].IPC * 100
		extra := (rb.TotalEnergy() - rn.TotalEnergy()) / rn.TotalEnergy() * 100
		perf.Observe(deg)
		energy.Observe(extra)
		t.AddRow(b, rb.Cores[0].IPC, rn.Cores[0].IPC, deg, rb.TotalEnergy(), rn.TotalEnergy(), extra)
	}
	t.AddRow("AVERAGE", "", "", perf.Value(), "", "", energy.Value())
	return t, nil
}

// RefreshBehaviour regenerates the paper's §III refresh study from
// captured baseline runs: Fig. 2 (non-blocking refresh fraction at
// 1x/2x/4x the refresh cycle), Fig. 3 (blocked requests per blocking
// refresh), Fig. 4 (E1/E2 event coverage), and Table I (λ and β at
// 1x/2x/4x observational windows).
func RefreshBehaviour(o ExpOptions) (fig2, fig3, fig4, tab1 *Table, err error) {
	fig2 = &Table{ID: "fig2", Title: "Non-blocking refresh fraction (window = k x tRFC)",
		Header: []string{"bench", "1x", "2x", "4x"}}
	fig3 = &Table{ID: "fig3", Title: "Requests blocked per blocking refresh (window = tRFC)",
		Header: []string{"bench", "mean", "max"}}
	fig4 = &Table{ID: "fig4", Title: "E1+E2 event coverage (window = k x tREFI)",
		Header: []string{"bench", "E1_1x", "E2_1x", "coverage_1x", "coverage_2x", "coverage_4x"}}
	tab1 = &Table{ID: "tab1", Title: "Lambda and beta (window = k x tREFI)",
		Header: []string{"bench", "lambda_1x", "beta_1x", "lambda_2x", "beta_2x", "lambda_4x", "beta_4x"}}

	benches := o.benches()
	ranks := make([]int, len(benches))
	tasks := make([]runner.Task[*Result], 0, len(benches))
	for i, b := range benches {
		cfg := o.single(b, ModeBaseline)
		cfg.Capture = true
		ranks[i] = cfg.Ranks
		tasks = append(tasks, o.task("refresh-behaviour/"+b, cfg))
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	std, err := dram.Lookup(o.Standard)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	p, err := std.Params(Refresh1x)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	for i, b := range benches {
		tl := analysis.NewTimeline(results[i].Capture, ranks[i])

		fig2.AddRow(b,
			tl.NonBlockingFraction(p.RFC),
			tl.NonBlockingFraction(2*p.RFC),
			tl.NonBlockingFraction(4*p.RFC))

		mean, max := tl.BlockedStats(p.RFC)
		fig3.AddRow(b, mean, max)

		w1 := tl.Windows(p.REFI)
		w2 := tl.Windows(2 * p.REFI)
		w4 := tl.Windows(4 * p.REFI)
		fig4.AddRow(b, w1.E1Fraction(), w1.E2Fraction(), w1.Coverage(), w2.Coverage(), w4.Coverage())
		tab1.AddRow(b, w1.Lambda(), w1.Beta(), w2.Lambda(), w2.Beta(), w4.Lambda(), w4.Beta())
	}
	return fig2, fig3, fig4, tab1, nil
}

// Fig7to9 regenerates Figures 7-9: single-core IPC, energy (both
// normalized to the baseline) and SRAM hit rate across buffer sizes.
func Fig7to9(o ExpOptions) (fig7, fig8, fig9 *Table, err error) {
	sizes := o.SRAMSizes
	ipcHeader := []string{"bench"}
	for _, s := range sizes {
		ipcHeader = append(ipcHeader, fmt.Sprintf("ROP-%d", s))
	}
	ipcHeader = append(ipcHeader, "NoRefresh")
	fig7 = &Table{ID: "fig7", Title: "Single-core IPC normalized to baseline", Header: ipcHeader}
	fig8 = &Table{ID: "fig8", Title: "Single-core energy normalized to baseline", Header: ipcHeader}
	hitHeader := []string{"bench"}
	for _, s := range sizes {
		hitHeader = append(hitHeader, fmt.Sprintf("%d", s))
	}
	fig9 = &Table{ID: "fig9", Title: "SRAM buffer hit rate by capacity", Header: hitHeader}

	benches := o.benches()
	stride := 2 + len(sizes) // base, noref, then one ROP run per size
	tasks := make([]runner.Task[*Result], 0, stride*len(benches))
	for _, b := range benches {
		tasks = append(tasks,
			o.task("fig7/"+b+"/base", o.single(b, ModeBaseline)),
			o.task("fig7/"+b+"/noref", o.single(b, ModeNoRefresh)))
		for _, s := range sizes {
			cfg := o.single(b, ModeROP)
			cfg.SRAMLines = s
			tasks = append(tasks, o.task(fmt.Sprintf("fig7/%s/rop%d", b, s), cfg))
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, nil, nil, err
	}

	for i, b := range benches {
		rb, rn := results[i*stride], results[i*stride+1]
		ipcRow := []any{b}
		energyRow := []any{b}
		hitRow := []any{b}
		for j := range sizes {
			rr := results[i*stride+2+j]
			ipcRow = append(ipcRow, rr.Cores[0].IPC/rb.Cores[0].IPC)
			energyRow = append(energyRow, rr.TotalEnergy()/rb.TotalEnergy())
			hitRow = append(hitRow, rr.SRAMHitRate)
		}
		ipcRow = append(ipcRow, rn.Cores[0].IPC/rb.Cores[0].IPC)
		energyRow = append(energyRow, rn.TotalEnergy()/rb.TotalEnergy())
		fig7.AddRow(ipcRow...)
		fig8.AddRow(energyRow...)
		fig9.AddRow(hitRow...)
	}
	return fig7, fig8, fig9, nil
}

// aloneRun is the alone-IPC run behind Eq. 4's weighted speedup: bench
// by itself on the 4-core platform (4 ranks), with an LLC of llcMiB
// (0 = the 4-core default) at die density densityGb (0 = datasheet
// 8 Gb). The label names every axis the config varies, so one label
// never stands for two configs; repeats across mixes and figures are
// served by the run store.
func (o *ExpOptions) aloneRun(bench string, llcMiB, densityGb int) runner.Task[*Result] {
	cfg := o.multi([]string{bench}, ModeBaseline, false)
	cfg.Ranks = 4
	cfg.LLCBytes = Default("a", "b", "c", "d").LLCBytes
	cfg.DensityGb = densityGb
	label := "alone/" + bench
	if llcMiB > 0 {
		cfg.LLCBytes = llcMiB * cache.MiB
		label += fmt.Sprintf("/%dMB", llcMiB)
	}
	if densityGb != 0 {
		label += fmt.Sprintf("/%dGb", densityGb)
	}
	return o.task(label, cfg)
}

// firstCoreIPCs returns core 0's IPC of each result: the alone IPCs of
// a mix from its aloneRun results.
func firstCoreIPCs(results []*Result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.Cores[0].IPC
	}
	return out
}

// Fig10and11 regenerates Figures 10-11: 4-core normalized weighted
// speedup and energy for Baseline, Baseline-RP and ROP.
func Fig10and11(o ExpOptions) (fig10, fig11 *Table, err error) {
	fig10 = &Table{ID: "fig10", Title: "Normalized weighted speedup (4-core)",
		Header: []string{"mix", "Baseline", "Baseline-RP", "ROP", "ROP_vs_Base"}}
	fig11 = &Table{ID: "fig11", Title: "Normalized energy (4-core)",
		Header: []string{"mix", "Baseline", "Baseline-RP", "ROP"}}

	mixes := o.mixes()
	var tasks []runner.Task[*Result]
	for _, m := range mixes {
		for _, b := range m.Members {
			tasks = append(tasks, o.aloneRun(b, 0, 0))
		}
		tasks = append(tasks,
			o.task("multi/"+m.Name+"/base", o.multi(m.Members, ModeBaseline, false)),
			o.task("multi/"+m.Name+"/base-rp", o.multi(m.Members, ModeBaseline, true)),
			o.task("multi/"+m.Name+"/rop", o.multi(m.Members, ModeROP, true)))
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, nil, err
	}

	var ratios []float64
	idx := 0
	for _, m := range mixes {
		alone := firstCoreIPCs(results[idx : idx+len(m.Members)])
		idx += len(m.Members)
		base, baseRP, rop := results[idx], results[idx+1], results[idx+2]
		idx += 3
		wsB := WeightedSpeedup(base, alone)
		wsRP := WeightedSpeedup(baseRP, alone)
		wsR := WeightedSpeedup(rop, alone)
		ratio := wsR / wsB
		ratios = append(ratios, ratio)
		fig10.AddRow(m.Name, 1.0, wsRP/wsB, ratio, ratio)
		fig11.AddRow(m.Name, 1.0,
			baseRP.TotalEnergy()/base.TotalEnergy(),
			rop.TotalEnergy()/base.TotalEnergy())
	}
	fig10.AddRow("GEOMEAN", "", "", stats.GeoMean(ratios), stats.GeoMean(ratios))
	return fig10, fig11, nil
}

// Fig12to14 regenerates Figures 12-14: the LLC-size sensitivity sweep of
// weighted speedup, energy, and SRAM hit rate.
func Fig12to14(o ExpOptions) (fig12, fig13, fig14 *Table, err error) {
	header := []string{"mix"}
	for _, mb := range o.LLCSizesMiB {
		header = append(header, fmt.Sprintf("%dMB", mb))
	}
	fig12 = &Table{ID: "fig12", Title: "ROP weighted speedup vs Baseline by LLC size", Header: header}
	fig13 = &Table{ID: "fig13", Title: "ROP energy vs Baseline by LLC size", Header: header}
	fig14 = &Table{ID: "fig14", Title: "SRAM hit rate by LLC size", Header: header}

	mixes := o.mixes()
	var tasks []runner.Task[*Result]
	for _, m := range mixes {
		for _, mb := range o.LLCSizesMiB {
			for _, b := range m.Members {
				tasks = append(tasks, o.aloneRun(b, mb, 0))
			}
			llc := mb * cache.MiB
			cfgB := o.multi(m.Members, ModeBaseline, false)
			cfgB.LLCBytes = llc
			cfgR := o.multi(m.Members, ModeROP, true)
			cfgR.LLCBytes = llc
			tasks = append(tasks,
				o.task(fmt.Sprintf("fig12/%s/%dMB/base", m.Name, mb), cfgB),
				o.task(fmt.Sprintf("fig12/%s/%dMB/rop", m.Name, mb), cfgR))
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, nil, nil, err
	}

	idx := 0
	for _, m := range mixes {
		wsRow := []any{m.Name}
		enRow := []any{m.Name}
		hitRow := []any{m.Name}
		for range o.LLCSizesMiB {
			alone := firstCoreIPCs(results[idx : idx+len(m.Members)])
			idx += len(m.Members)
			base, rop := results[idx], results[idx+1]
			idx += 2
			wsRow = append(wsRow, WeightedSpeedup(rop, alone)/WeightedSpeedup(base, alone))
			enRow = append(enRow, rop.TotalEnergy()/base.TotalEnergy())
			hitRow = append(hitRow, rop.SRAMHitRate)
		}
		fig12.AddRow(wsRow...)
		fig13.AddRow(enRow...)
		fig14.AddRow(hitRow...)
	}
	return fig12, fig13, fig14, nil
}

// AblationGate compares the paper's probabilistic λ/β gate against
// always-prefetch and never-prefetch (drain-only) policies.
func AblationGate(o ExpOptions) (*Table, error) {
	t := &Table{ID: "abl-gate", Title: "Prefetch gate ablation (IPC normalized to baseline)",
		Header: []string{"bench", "probabilistic", "always", "never"}}
	benches := o.benches()
	gates := []GatePolicy{GateProbabilistic, GateAlways, GateNever}
	stride := 1 + len(gates)
	tasks := make([]runner.Task[*Result], 0, stride*len(benches))
	for _, b := range benches {
		tasks = append(tasks, o.task("abl-gate/"+b+"/base", o.single(b, ModeBaseline)))
		for _, gate := range gates {
			cfg := o.single(b, ModeROP)
			cfg.ROPGate = gate
			tasks = append(tasks, o.task(fmt.Sprintf("abl-gate/%s/%v", b, gate), cfg))
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		rb := results[i*stride]
		row := []any{b}
		for j := range gates {
			row = append(row, results[i*stride+1+j].Cores[0].IPC/rb.Cores[0].IPC)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationPredictor compares the paper's prediction table (with the
// noise-tolerant update), the strict verbatim update rule, and the
// original VLDP at rank scope.
func AblationPredictor(o ExpOptions) (*Table, error) {
	t := &Table{ID: "abl-pred", Title: "Predictor ablation (normalized IPC / SRAM hit rate)",
		Header: []string{"bench", "table_ipc", "table_hit", "strict_ipc", "strict_hit", "vldp_ipc", "vldp_hit"}}
	variants := []struct {
		strict bool
		pred   Predictor
	}{{false, PredictorTable}, {true, PredictorTable}, {false, PredictorVLDP}}
	benches := o.benches()
	stride := 1 + len(variants)
	tasks := make([]runner.Task[*Result], 0, stride*len(benches))
	for _, b := range benches {
		tasks = append(tasks, o.task("abl-pred/"+b+"/base", o.single(b, ModeBaseline)))
		for _, v := range variants {
			cfg := o.single(b, ModeROP)
			cfg.ROPStrictTable = v.strict
			cfg.ROPPredictor = v.pred
			tasks = append(tasks, o.task(fmt.Sprintf("abl-pred/%s/strict=%v/%v", b, v.strict, v.pred), cfg))
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		rb := results[i*stride]
		row := []any{b}
		for j := range variants {
			rr := results[i*stride+1+j]
			row = append(row, rr.Cores[0].IPC/rb.Cores[0].IPC, rr.SRAMHitRate)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// PolicyComparison runs the four refresh policies — auto-refresh
// baseline, Elastic Refresh (related work), ROP, and the no-refresh
// ideal — and reports IPC normalized to the baseline.
func PolicyComparison(o ExpOptions) (*Table, error) {
	t := &Table{ID: "policy", Title: "Refresh policy comparison (IPC normalized to baseline)",
		Header: []string{"bench", "baseline", "elastic", "pausing", "rop", "norefresh"}}
	modes := []Mode{ModeElastic, ModePausing, ModeROP, ModeNoRefresh}
	benches := o.benches()
	stride := 1 + len(modes)
	tasks := make([]runner.Task[*Result], 0, stride*len(benches))
	for _, b := range benches {
		tasks = append(tasks, o.task("policy/"+b+"/base", o.single(b, ModeBaseline)))
		for _, mode := range modes {
			tasks = append(tasks, o.task(fmt.Sprintf("policy/%s/%v", b, mode), o.single(b, mode)))
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		rb := results[i*stride]
		row := []any{b, 1.0}
		for j := range modes {
			row = append(row, results[i*stride+1+j].Cores[0].IPC/rb.Cores[0].IPC)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationFGR runs baseline and ROP under the JEDEC fine-grained refresh
// modes (the paper's stated future-work direction), reporting the
// remaining refresh overhead in each.
func AblationFGR(o ExpOptions) (*Table, error) {
	t := &Table{ID: "abl-fgr", Title: "Fine-grained refresh: IPC normalized to the same-mode no-refresh ideal",
		Header: []string{"bench", "base_1x", "rop_1x", "base_2x", "rop_2x", "base_4x", "rop_4x"}}
	benches := o.benches()
	if len(benches) > 4 {
		// The FGR sweep focuses on intensive benchmarks, as the paper's
		// future-work discussion does.
		benches = []string{"GemsFDTD", "lbm", "libquantum", "bwaves"}
	}
	fgrModes := []RefreshMode{Refresh1x, Refresh2x, Refresh4x}
	stride := 3 * len(fgrModes) // noref, base, rop per FGR mode
	tasks := make([]runner.Task[*Result], 0, stride*len(benches))
	for _, b := range benches {
		for _, mode := range fgrModes {
			cfgN := o.single(b, ModeNoRefresh)
			cfgN.FGR = mode
			cfgB := o.single(b, ModeBaseline)
			cfgB.FGR = mode
			cfgR := o.single(b, ModeROP)
			cfgR.FGR = mode
			tasks = append(tasks,
				o.task(fmt.Sprintf("abl-fgr/%s/%v/noref", b, mode), cfgN),
				o.task(fmt.Sprintf("abl-fgr/%s/%v/base", b, mode), cfgB),
				o.task(fmt.Sprintf("abl-fgr/%s/%v/rop", b, mode), cfgR))
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := []any{b}
		for j := range fgrModes {
			rn := results[i*stride+3*j]
			rb := results[i*stride+3*j+1]
			rr := results[i*stride+3*j+2]
			row = append(row, rb.Cores[0].IPC/rn.Cores[0].IPC, rr.Cores[0].IPC/rn.Cores[0].IPC)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FutureBankRefresh evaluates the paper's §VII future-work direction:
// bank-granularity refresh, with and without ROP on top, against the
// rank-refresh baseline and the no-refresh ideal.
func FutureBankRefresh(o ExpOptions) (*Table, error) {
	t := &Table{ID: "future-bank", Title: "Finer refresh granularities (IPC normalized to rank-refresh baseline)",
		Header: []string{"bench", "rank_baseline", "bank_refresh", "rop_bank", "subarray", "norefresh"}}
	benches := o.benches()
	if len(benches) > 6 {
		benches = []string{"GemsFDTD", "lbm", "libquantum", "bwaves", "gcc", "cactusADM"}
	}
	modes := []Mode{ModeBankRefresh, ModeROPBank, ModeSubarrayRefresh, ModeNoRefresh}
	stride := 1 + len(modes)
	tasks := make([]runner.Task[*Result], 0, stride*len(benches))
	for _, b := range benches {
		tasks = append(tasks, o.task("future-bank/"+b+"/base", o.single(b, ModeBaseline)))
		for _, mode := range modes {
			tasks = append(tasks, o.task(fmt.Sprintf("future-bank/%s/%v", b, mode), o.single(b, mode)))
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		rb := results[i*stride]
		row := []any{b, 1.0}
		for j := range modes {
			row = append(row, results[i*stride+1+j].Cores[0].IPC/rb.Cores[0].IPC)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// CrossStandard regenerates the Fig. 1 refresh-overhead study across
// every registered DRAM standard: for each standard it runs the
// standard's native-granularity refresh baseline (all-bank auto-refresh
// for DDR4, bank-granularity refresh for LPDDR4/DDR5), ROP layered on
// that baseline, and the no-refresh ideal, and reports how much of the
// refresh-overhead gap ROP recovers plus the fraction of rank-cycles
// the baseline spent refresh-locked. ExpOptions.Standard is ignored:
// the sweep covers dram.Standards() in registration order.
func CrossStandard(o ExpOptions) (*Table, error) {
	t := &Table{ID: "xstd", Title: "Cross-standard refresh overhead and ROP recovery",
		Header: []string{"standard", "bench", "ipc_base", "ipc_rop", "ipc_noref",
			"recovered_%", "refresh_busy_%"}}
	benches := o.benches()
	if len(benches) > 4 {
		// Focus the sweep on the memory-intensive benchmarks, as the FGR
		// ablation does: the refresh overhead of the others is negligible.
		benches = []string{"GemsFDTD", "lbm", "libquantum", "bwaves"}
	}
	standards := dram.Standards()
	stride := 3 // base, rop, noref
	tasks := make([]runner.Task[*Result], 0, stride*len(standards)*len(benches))
	for _, std := range standards {
		// The native refresh policy pair: all-bank standards refresh whole
		// ranks; per-bank and same-bank standards refresh at bank
		// granularity (one bank, or one bank per group, at a time).
		base, rop := ModeBaseline, ModeROP
		if std.Refresh().Granularity != dram.GranularityAllBank {
			base, rop = ModeBankRefresh, ModeROPBank
		}
		for _, b := range benches {
			for _, mode := range []Mode{base, rop, ModeNoRefresh} {
				cfg := o.single(b, mode)
				cfg.Standard = std.Name()
				tasks = append(tasks,
					o.task(fmt.Sprintf("xstd/%s/%s/%v", std.Name(), b, mode), cfg))
			}
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, std := range standards {
		for _, b := range benches {
			rb, rr, rn := results[idx], results[idx+1], results[idx+2]
			idx += stride
			// Recovered fraction of the refresh-overhead gap; the gap can
			// be ~zero (or negative, from scheduling noise) on
			// refresh-insensitive runs, so guard the division.
			recovered := 0.0
			if gap := rn.Cores[0].IPC - rb.Cores[0].IPC; gap > 1e-9 {
				recovered = (rr.Cores[0].IPC - rb.Cores[0].IPC) / gap * 100
			}
			busy := 0.0
			if locked, ok := rb.Metrics.Field("dram.ref_locked_cycles", "value"); ok {
				// ref_locked_cycles accounts rank-cycles under all-bank REF
				// but locked-bank-cycles under bank-granularity refresh;
				// normalize both to the fraction of the device frozen.
				denom := float64(rb.ElapsedBus) * float64(Default(b).Ranks)
				if std.Refresh().Granularity != dram.GranularityAllBank {
					denom *= float64(std.Geometry(1).Banks)
				}
				busy = locked / denom * 100
			}
			t.AddRow(std.Name(), b, rb.Cores[0].IPC, rr.Cores[0].IPC, rn.Cores[0].IPC,
				recovered, busy)
		}
	}
	return t, nil
}

// Policies runs the refresh-policy lab: the native baseline, the Chang
// et al. HPCA'14 line (out-of-order per-bank scheduling, DARP, SARP),
// ROP, and the no-refresh ideal, head-to-head on the 4-core mixes
// across projected die densities (8/16/32/64 Gb tRFC scaling,
// dram.ScaleDensity). Each row reports weighted speedup normalized to
// the same-density native baseline — all-bank auto-refresh on all-bank
// standards, bank-granularity refresh otherwise (with ROP layered on
// the same native granularity, as in CrossStandard) — plus the
// fraction of the device the baseline spent refresh-locked, and each
// density closes with a GEOMEAN row. ExpOptions.DensitiesGb restricts
// the density points (nil = every dram.Densities() point).
func Policies(o ExpOptions) (*Table, error) {
	t := &Table{ID: "policies", Title: "Refresh-policy lab: weighted speedup normalized to the native baseline, by die density",
		Header: []string{"density_gb", "mix", "Baseline", "OoO", "DARP", "SARP", "ROP", "NoRefresh", "base_refresh_busy_%"}}
	std, err := dram.Lookup(o.Standard)
	if err != nil {
		return nil, err
	}
	base, rop := ModeBaseline, ModeROP
	if std.Refresh().Granularity != dram.GranularityAllBank {
		base, rop = ModeBankRefresh, ModeROPBank
	}
	modes := []Mode{base, ModeOutOfOrderBank, ModeDARP, ModeSARP, rop, ModeNoRefresh}
	densities := o.DensitiesGb
	if len(densities) == 0 {
		densities = dram.Densities()
	}
	mixes := o.mixes()
	var tasks []runner.Task[*Result]
	for _, gb := range densities {
		for _, m := range mixes {
			for _, b := range m.Members {
				tasks = append(tasks, o.aloneRun(b, 0, gb))
			}
			for _, mode := range modes {
				cfg := o.multi(m.Members, mode, false)
				cfg.DensityGb = gb
				tasks = append(tasks, o.task(fmt.Sprintf("policies/%dGb/%s/%v", gb, m.Name, mode), cfg))
			}
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, gb := range densities {
		norm := make([][]float64, len(modes))
		for _, m := range mixes {
			alone := firstCoreIPCs(results[idx : idx+len(m.Members)])
			idx += len(m.Members)
			rb := results[idx]
			wsBase := WeightedSpeedup(rb, alone)
			row := []any{gb, m.Name}
			for j := range modes {
				v := WeightedSpeedup(results[idx+j], alone) / wsBase
				norm[j] = append(norm[j], v)
				row = append(row, v)
			}
			idx += len(modes)
			busy := 0.0
			if locked, ok := rb.Metrics.Field("dram.ref_locked_cycles", "value"); ok {
				// Same normalization as CrossStandard: rank-cycles under
				// all-bank REF, locked-bank-cycles under bank granularity.
				denom := float64(rb.ElapsedBus) * float64(Default(m.Members...).Ranks)
				if std.Refresh().Granularity != dram.GranularityAllBank {
					denom *= float64(std.Geometry(1).Banks)
				}
				busy = locked / denom * 100
			}
			row = append(row, busy)
			t.AddRow(row...)
		}
		gmRow := []any{gb, "GEOMEAN"}
		for j := range modes {
			gmRow = append(gmRow, stats.GeoMean(norm[j]))
		}
		gmRow = append(gmRow, "")
		t.AddRow(gmRow...)
	}
	return t, nil
}

// AblationPagePolicy compares the paper's open-page row policy against
// closed-page, for the baseline and ROP systems.
func AblationPagePolicy(o ExpOptions) (*Table, error) {
	t := &Table{ID: "abl-page", Title: "Row-buffer policy ablation (IPC, absolute)",
		Header: []string{"bench", "open_base", "closed_base", "open_rop", "closed_rop"}}
	benches := o.benches()
	if len(benches) > 4 {
		benches = []string{"libquantum", "lbm", "gcc", "bzip2"}
	}
	stride := 4 // open_base, closed_base, open_rop, closed_rop
	tasks := make([]runner.Task[*Result], 0, stride*len(benches))
	for _, b := range benches {
		for _, mode := range []Mode{ModeBaseline, ModeROP} {
			for _, closed := range []bool{false, true} {
				cfg := o.single(b, mode)
				cfg.ClosedPage = closed
				tasks = append(tasks, o.task(fmt.Sprintf("abl-page/%s/%v/closed=%v", b, mode, closed), cfg))
			}
		}
	}
	results, err := o.runBatch(tasks)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		row := []any{b}
		for j := 0; j < stride; j++ {
			row = append(row, results[i*stride+j].Cores[0].IPC)
		}
		t.AddRow(row...)
	}
	return t, nil
}
