// Command ropexp regenerates the paper's evaluation artifacts. Each
// experiment id corresponds to one figure or table; "all" runs the whole
// evaluation (see DESIGN.md §4 for the index).
//
//	ropexp -exp fig1
//	ropexp -exp fig2,fig3,fig4,tab1
//	ropexp -exp all -quick
//	ropexp -exp all -jobs 8 -progress
//	ropexp -exp fig10 -v
//	ropexp -exp fig1 -quick -stats-out fig1.stats.json
//	ropexp -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Independent simulation runs are fanned across -jobs worker goroutines
// (default: GOMAXPROCS). The rendered tables are byte-identical for any
// -jobs value and a fixed seed: results are assembled by submission
// order, never completion order. -stats-out additionally writes every
// run's full metric-registry snapshot (docs/METRICS.md documents the
// schema); the artifact is likewise byte-identical at any -jobs count.
//
// Each distinct run config is simulated once per campaign; repeats
// are served from the campaign's run store. Campaigns are
// fault-tolerant (docs/ROBUSTNESS.md): -journal checkpoints every
// completed run, -resume serves checkpointed runs without
// re-simulating, -check validates every DRAM command against
// the JEDEC timing checker, -run-timeout arms a per-run watchdog, and
// -fail-policy picks fail-fast or run-to-completion on errors. SIGINT
// or SIGTERM cancels in-flight runs, flushes the partial artifact and
// journal, and exits with code 3; a second signal exits immediately.
//
// Campaigns also distribute: -serve host:port coordinates the campaign
// across worker processes (cmd/ropworker, or ropexp -connect), leasing
// runs to attached workers, re-dispatching them on worker loss, and
// falling back to in-process execution while none are attached — with
// a byte-identical artifact either way. -http serves live progress and
// per-worker health. See docs/ROBUSTNESS.md ("The distributed
// campaign") and EXPERIMENTS.md for recipes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"ropsim"
	"ropsim/internal/campaign"
	"ropsim/internal/runner"
)

// Exit codes: 0 success, 1 experiment failure, 2 usage error,
// 3 interrupted by signal (partial artifact and journal flushed).
// The authoritative definitions — shared with cmd/ropworker — live in
// internal/campaign and are documented in docs/ROBUSTNESS.md.
const (
	exitOK          = campaign.ExitOK
	exitFailure     = campaign.ExitFailure
	exitUsage       = campaign.ExitUsage
	exitInterrupted = campaign.ExitInterrupted
)

func main() {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiment ids: fig1 fig2 fig3 fig4 tab1 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 abl-gate abl-pred abl-fgr abl-page policy policies future-bank xstd, or all")
		densities  = flag.String("densities", "", "restrict the policies sweep to comma-separated die densities in Gbit (default: 8,16,32,64)")
		quickF     = flag.Bool("quick", false, "reduced run lengths (smoke test scale)")
		insts      = flag.Int64("insts", 0, "override single-core instructions per run")
		minsts     = flag.Int64("minsts", 0, "override per-core instructions of 4-core runs")
		seed       = flag.Int64("seed", 1, "simulation seed")
		verbose    = flag.Bool("v", false, "log every completed run")
		benches    = flag.String("bench", "", "restrict to comma-separated benchmarks")
		jobs       = flag.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
		progress   = flag.Bool("progress", false, "print per-run progress with ETA to stderr")
		statsOut   = flag.String("stats-out", "", "write every run's metric snapshot to this file (.csv selects CSV, else JSON; see docs/METRICS.md)")
		journalF   = flag.String("journal", "", "checkpoint completed runs to this JSONL sidecar (see docs/ROBUSTNESS.md)")
		resumeF    = flag.Bool("resume", false, "serve runs already checkpointed in -journal without re-simulating")
		checkF     = flag.Bool("check", false, "validate every DRAM command against the JEDEC timing checker")
		standard   = flag.String("standard", "", "DRAM standard every experiment simulates (default DDR4-1600; xstd sweeps all regardless)")
		runTimeout = flag.Duration("run-timeout", 0, "per-run wall-clock watchdog deadline (0 = none)")
		failPolicy = flag.String("fail-policy", "failfast", "on run failure: failfast (cancel the batch) or continue (finish siblings, summarize at the end)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the evaluation to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		serveF     = flag.String("serve", "", "host:port to coordinate a distributed campaign on; workers attach with ropworker -connect (docs/ROBUSTNESS.md)")
		connectF   = flag.String("connect", "", "host:port of a coordinator to attach to as a worker (instead of running experiments)")
		httpF      = flag.String("http", "", "with -serve: host:port serving live campaign progress and per-worker health over HTTP")
		heartbeatE = flag.Duration("heartbeat", campaign.DefaultHeartbeatEvery, "with -serve: heartbeat interval dictated to workers")
		heartbeatM = flag.Duration("heartbeat-timeout", campaign.DefaultHeartbeatMiss, "with -serve: silence deadline after which a worker is declared lost and its runs re-dispatched")
	)
	flag.Parse()

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	policy, err := runner.ParsePolicy(*failPolicy)
	if err != nil {
		usageErr(err)
	}
	if *resumeF && *journalF == "" {
		usageErr(errors.New("-resume requires -journal"))
	}
	if *serveF != "" && *connectF != "" {
		usageErr(errors.New("-serve and -connect are mutually exclusive"))
	}
	if *httpF != "" && *serveF == "" {
		usageErr(errors.New("-http requires -serve"))
	}
	if *heartbeatM <= *heartbeatE {
		usageErr(errors.New("-heartbeat-timeout must exceed -heartbeat"))
	}
	if *connectF != "" {
		// Worker mode: this process executes runs leased by a
		// coordinator instead of running its own campaign.
		os.Exit(workerMain(*connectF, *jobs, *verbose))
	}

	stopCPUProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitFailure)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitFailure)
		}
		stopCPUProfile = func() { pprof.StopCPUProfile(); f.Close() }
	}

	o := ropsim.FullOptions()
	if *quickF {
		o = ropsim.QuickOptions()
	}
	if *insts > 0 {
		o.Instructions = *insts
	}
	if *minsts > 0 {
		o.MultiInstructions = *minsts
	}
	o.Seed = *seed
	if *verbose {
		o.Progress = os.Stderr
	}
	if *benches != "" {
		o.Benches = strings.Split(*benches, ",")
	}
	if *statsOut != "" {
		o.Artifact = ropsim.NewArtifact()
	}
	o.Check = *checkF
	o.RunTimeout = *runTimeout
	o.Standard = *standard
	if *densities != "" {
		for _, s := range strings.Split(*densities, ",") {
			var gb int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &gb); err != nil {
				usageErr(fmt.Errorf("bad -densities entry %q", s))
			}
			o.DensitiesGb = append(o.DensitiesGb, gb)
		}
	}

	// One run store spans the campaign, so each distinct config is
	// simulated once however many experiments submit it; -journal backs
	// it with a sidecar file.
	o.Journal = &ropsim.Journal{}
	if *journalF != "" {
		if !*resumeF {
			// A fresh (non-resuming) campaign starts from an empty
			// sidecar; stale entries must not be served.
			os.Remove(*journalF)
		}
		j, err := ropsim.OpenJournal(*journalF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitFailure)
		}
		defer j.Close()
		o.Journal = j
		if *resumeF && j.Len() > 0 {
			fmt.Fprintf(os.Stderr, "journal: resuming past %d checkpointed runs\n", j.Len())
		}
	}

	// First SIGINT/SIGTERM cancels in-flight runs (workers drain, the
	// partial artifact and journal are flushed, exit code 3); a second
	// signal aborts the process immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "ropexp: %v: cancelling in-flight runs (signal again to abort immediately)\n", s)
		cancel()
		<-sigCh
		os.Exit(campaign.ExitAborted)
	}()
	o.Ctx = ctx

	// One pool serves every selected experiment, so the final stats
	// line covers the whole evaluation.
	pool := runner.New(*jobs)
	pool.SetPolicy(policy)
	o.Jobs = pool.Jobs()
	o.Pool = pool
	if *progress {
		pool.SetProgress(func(ev runner.Event) {
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "[%d/%d] %s FAILED: %v\n", ev.Completed, ev.Submitted, ev.Label, ev.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-40s %8s  eta %s\n",
				ev.Completed, ev.Submitted, ev.Label, ev.Duration.Round(1e6), ev.ETA.Round(1e8))
		})
	}

	// -serve turns this campaign into a distributed coordinator: runs
	// are leased to attached workers (and re-dispatched on worker
	// loss), falling back to in-process execution while none are
	// attached. Results merge through the same journal/artifact path
	// as local runs, so the artifact stays byte-identical.
	var coord *campaign.Coordinator
	if *serveF != "" {
		c, err := campaign.NewCoordinator(*serveF, campaign.CoordinatorOptions{
			Clock:          runner.WallClock{},
			HeartbeatEvery: *heartbeatE,
			HeartbeatMiss:  *heartbeatM,
			Local: ropsim.RemoteExec(func(ctx context.Context, _ string, cfg ropsim.Config) (*ropsim.Result, error) {
				return ropsim.RunCtx(ctx, cfg)
			}),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitFailure)
		}
		coord = c
		fmt.Fprintf(os.Stderr, "campaign: coordinating on %s\n", coord.Addr())
		o.Remote = ropsim.RemoteDo(coord.Do)
		if *httpF != "" {
			go func() {
				if err := http.ListenAndServe(*httpF, coord.Handler()); err != nil {
					fmt.Fprintf(os.Stderr, "campaign: http: %v\n", err)
				}
			}()
		}
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	sel := func(ids ...string) bool {
		if all {
			return true
		}
		for _, id := range ids {
			if want[id] {
				return true
			}
		}
		return false
	}

	out := os.Stdout

	// flush writes the (possibly partial) stats artifact and the pool /
	// journal summary lines. Every exit path runs it — including
	// interrupts — so whatever completed is never lost.
	flush := func() {
		if s := pool.Stats(); s.Completed > 0 {
			fmt.Fprintf(os.Stderr, "runner: %s\n", s)
		}
		fmt.Fprintf(os.Stderr, "journal: %d checkpointed runs (%d served without re-simulating)\n",
			o.Journal.Len(), o.Journal.Hits())
		if o.Artifact != nil {
			if err := o.Artifact.WriteFile(*statsOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Fprintf(os.Stderr, "stats: %d run snapshots -> %s\n", o.Artifact.Len(), *statsOut)
		}
	}
	// closeCampaign winds a -serve coordinator down: a clean end drains
	// attached workers (they finish in-flight runs and exit 0); an
	// interrupt or failure aborts them immediately.
	closeCampaign := func(code int) {
		if coord == nil {
			return
		}
		if code == exitOK {
			coord.Close()
		} else {
			coord.Abort()
		}
	}
	finish := func(code int) {
		closeCampaign(code)
		flush()
		stopCPUProfile()
		os.Exit(code)
	}

	// fail handles one experiment's error: an interrupt flushes and
	// exits 3; otherwise fail-fast exits 1 immediately while
	// run-to-completion records the error and lets the remaining
	// experiments proceed.
	var campaignErrs []error
	fail := func(err error) {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ropexp: interrupted")
			finish(exitInterrupted)
		}
		var be *runner.BatchError
		if errors.As(err, &be) {
			fmt.Fprintln(os.Stderr, be.Summary())
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
		if policy == runner.FailFast {
			finish(exitFailure)
		}
		campaignErrs = append(campaignErrs, err)
	}
	print := func(tables ...*ropsim.Table) {
		for _, t := range tables {
			t.Fprint(out)
			fmt.Fprintln(out)
		}
	}

	if sel("fig1") {
		t, err := ropsim.Fig1(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("fig2", "fig3", "fig4", "tab1") {
		f2, f3, f4, t1, err := ropsim.RefreshBehaviour(o)
		if err != nil {
			fail(err)
		} else {
			var show []*ropsim.Table
			if all || want["fig2"] {
				show = append(show, f2)
			}
			if all || want["fig3"] {
				show = append(show, f3)
			}
			if all || want["fig4"] {
				show = append(show, f4)
			}
			if all || want["tab1"] {
				show = append(show, t1)
			}
			print(show...)
		}
	}
	if sel("fig7", "fig8", "fig9") {
		f7, f8, f9, err := ropsim.Fig7to9(o)
		if err != nil {
			fail(err)
		} else {
			var show []*ropsim.Table
			if all || want["fig7"] {
				show = append(show, f7)
			}
			if all || want["fig8"] {
				show = append(show, f8)
			}
			if all || want["fig9"] {
				show = append(show, f9)
			}
			print(show...)
		}
	}
	if sel("fig10", "fig11") {
		f10, f11, err := ropsim.Fig10and11(o)
		if err != nil {
			fail(err)
		} else {
			var show []*ropsim.Table
			if all || want["fig10"] {
				show = append(show, f10)
			}
			if all || want["fig11"] {
				show = append(show, f11)
			}
			print(show...)
		}
	}
	if sel("fig12", "fig13", "fig14") {
		f12, f13, f14, err := ropsim.Fig12to14(o)
		if err != nil {
			fail(err)
		} else {
			var show []*ropsim.Table
			if all || want["fig12"] {
				show = append(show, f12)
			}
			if all || want["fig13"] {
				show = append(show, f13)
			}
			if all || want["fig14"] {
				show = append(show, f14)
			}
			print(show...)
		}
	}
	if sel("abl-gate") {
		t, err := ropsim.AblationGate(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("abl-pred") {
		t, err := ropsim.AblationPredictor(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("policy") {
		t, err := ropsim.PolicyComparison(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("abl-page") {
		t, err := ropsim.AblationPagePolicy(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("future-bank") {
		t, err := ropsim.FutureBankRefresh(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("abl-fgr") {
		t, err := ropsim.AblationFGR(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("xstd") {
		t, err := ropsim.CrossStandard(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}
	if sel("policies") {
		t, err := ropsim.Policies(o)
		if err != nil {
			fail(err)
		} else {
			print(t)
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "ropexp: interrupted")
		finish(exitInterrupted)
	}
	if len(campaignErrs) > 0 {
		fmt.Fprintf(os.Stderr, "ropexp: %d experiment(s) failed\n", len(campaignErrs))
		finish(exitFailure)
	}
	closeCampaign(exitOK)
	flush()
	stopCPUProfile()
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}
