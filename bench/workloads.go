package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"ropsim"
	"ropsim/internal/cache"
	"ropsim/internal/memctrl"
	"ropsim/internal/runner"
	"ropsim/internal/sim"
	"ropsim/internal/stats"
)

// repoRoot is the repository root as seen from the harness's working
// directory: run.sh, `go run -C bench .` and `go test` all run it from
// bench/.
const repoRoot = ".."

// benchWorkload is one benchmark input. Single-run workloads build one
// simulation per rep; the campaign (config == nil) runs the quick
// Fig. 7-9 evaluation. BENCHMARK.json records why each was chosen.
type benchWorkload struct {
	name   string
	config func(seed int64) (sim.Config, error)
}

var workloads = []benchWorkload{
	{name: "rop-libquantum", config: func(seed int64) (sim.Config, error) {
		cfg := sim.Default("libquantum")
		cfg.Mode = memctrl.ModeROP
		cfg.Instructions = 4_000_000
		cfg.Seed = seed
		return cfg, nil
	}},
	{name: "wl1-baseline", config: func(seed int64) (sim.Config, error) {
		cfg, err := mixConfig("WL1", seed)
		cfg.Mode = memctrl.ModeBaseline
		cfg.LLCBytes = 1 * cache.MiB
		cfg.Instructions = 500_000
		return cfg, err
	}},
	{name: "wl6-rop-sparse", config: func(seed int64) (sim.Config, error) {
		cfg, err := mixConfig("WL6", seed)
		cfg.Mode = memctrl.ModeROP
		cfg.RankPartition = true
		cfg.Instructions = 20_000_000
		return cfg, err
	}},
	{name: "replay-zoo", config: func(seed int64) (sim.Config, error) {
		// The traces are fixed inputs; the seed rotates which core
		// replays which, and so where each lands in the address space.
		zoo := []string{"pointer", "scan", "memcached"}
		var benches []string
		for i := range zoo {
			name := zoo[(i+int(seed%3)+3)%3]
			benches = append(benches, "trace:"+repoRoot+"/testdata/traces/"+name+".ropt")
		}
		cfg := sim.Default(benches...)
		cfg.Mode = memctrl.ModeBaseline
		// Larger than any zoo trace, so every core replays its whole
		// trace and stops when it runs out.
		cfg.Instructions = 1 << 30
		cfg.Seed = seed
		return cfg, nil
	}},
	{name: "campaign-fig7"},
}

// mixConfig is the paper's 4-core configuration for a Table II mix.
func mixConfig(name string, seed int64) (sim.Config, error) {
	for _, mix := range ropsim.Mixes() {
		if mix.Name == name {
			cfg := sim.Default(mix.Members...)
			cfg.Seed = seed
			return cfg, nil
		}
	}
	return sim.Config{}, fmt.Errorf("no mix %q", name)
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// executor runs one simulation: sim.RunCtx untraced, composeRun traced.
type executor func(ctx context.Context, cfg sim.Config) (*sim.Result, error)

// variants is how many inputs one seed stands for; reps cycle through
// them. The host cost of a DRAM command depends on the input (by about
// ±5% between seeds on wl1-baseline), and so do the allocations per
// request. Averaging the inputs in every run shrinks that part of the
// run-to-run spread: eight inputs per seed more than halved the spread
// of allocations per request over ten seeds, against four.
const variants = 8

// variantSeed is the simulation seed of variant k of seed.
func variantSeed(seed int64, k int) int64 {
	return seed*variants + int64(k)
}

// outcome is what one rep produced.
type outcome struct {
	variant int
	digest  string
	snaps   []stats.Snapshot // the snapshot of every simulation in the rep
}

// session is a workload with its inputs prepared for one seed.
type session struct {
	w    benchWorkload
	seed int64
	cfgs [variants]sim.Config // single-run workloads
	pool *runner.Pool         // campaign only, shared by every rep
	want [variants]string     // the digest each variant must reproduce
	next int                  // variant of the next rep
}

// newSession prepares w's inputs. The expected digests are the committed
// ones for the seed, or empty until the first rep of a variant sets them.
func newSession(w benchWorkload, seed int64, jobs int) (*session, error) {
	s := &session{w: w, seed: seed, want: committedDigests(w.name, seed)}
	if w.config == nil {
		s.pool = runner.New(jobs)
		return s, nil
	}
	for k := range s.cfgs {
		cfg, err := w.config(variantSeed(seed, k))
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return nil, err
		}
		s.cfgs[k] = cfg
	}
	return s, nil
}

// rep runs one repetition on the next variant. With t == nil it runs the
// simulator as users do; otherwise every simulation goes through
// composeRun and its spans are merged into t.
func (s *session) rep(t *tracer) (outcome, error) {
	k := s.next
	s.next = (s.next + 1) % variants
	run := executor(sim.RunCtx)
	if t != nil {
		run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			rt := newTracer()
			res, err := composeRun(ctx, cfg, rt)
			t.merge(rt)
			return res, err
		}
	}
	if s.w.config == nil {
		return s.campaign(k, run, t)
	}
	res, err := run(context.Background(), s.cfgs[k])
	if err != nil {
		return outcome{}, err
	}
	var buf bytes.Buffer
	if t != nil {
		t.begin("stats.write_json")
	}
	err = res.Metrics.WriteJSON(&buf)
	if t != nil {
		t.end()
	}
	return outcome{variant: k, digest: digest(buf.Bytes()), snaps: []stats.Snapshot{res.Metrics}}, err
}

// campaign runs the quick Fig. 7-9 evaluation on the shared pool and
// digests the rendered tables plus the artifact JSON. A traced rep
// routes every run through the Remote hook, the one seam that lets a
// caller execute the campaign's runs.
func (s *session) campaign(k int, run executor, t *tracer) (outcome, error) {
	o := ropsim.QuickOptions()
	o.Seed = variantSeed(s.seed, k)
	o.Jobs = s.pool.Jobs()
	o.Pool = s.pool
	o.Artifact = ropsim.NewArtifact()
	if t != nil {
		o.Remote = func(ctx context.Context, _ string, cfg ropsim.Config) (*ropsim.Result, error) {
			return run(ctx, cfg)
		}
	}
	fig7, fig8, fig9, err := ropsim.Fig7to9(o)
	if err != nil {
		return outcome{}, err
	}
	var buf bytes.Buffer
	for _, tab := range []*ropsim.Table{fig7, fig8, fig9} {
		tab.Fprint(&buf)
	}
	write := func() error { return o.Artifact.WriteJSON(&buf) }
	if t != nil {
		err = t.span("artifact.write", write)
	} else {
		err = write()
	}
	if err != nil {
		return outcome{}, err
	}
	runs := o.Artifact.Snapshots()
	snaps := make([]stats.Snapshot, len(runs))
	for i, r := range runs {
		snaps[i] = r.Metrics
	}
	return outcome{variant: k, digest: digest(buf.Bytes()), snaps: snaps}, nil
}

// check compares a rep's digest with its variant's expected one,
// adopting the first digest when none is committed for the seed.
func (s *session) check(o outcome) error {
	want := &s.want[o.variant]
	if *want == "" {
		*want = o.digest
	}
	if o.digest != *want {
		return fmt.Errorf("%s seed %d variant %d: digest %.12s, want %.12s", s.w.name, s.seed, o.variant, o.digest, *want)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestsJSON holds the committed output digests: workload -> seed ->
// one SHA-256 per variant. Regenerate with `go test -run TestDigests
// -update`.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// digestSeeds are the seeds with committed digests. Seeds 2 and 3 are
// held out: a change that claims a gain must also hold on them.
var digestSeeds = []int64{1, 2, 3}

func committedDigests(name string, seed int64) (want [variants]string) {
	var all map[string]map[string][]string
	if json.Unmarshal(digestsJSON, &all) != nil {
		return want
	}
	copy(want[:], all[name][strconv.FormatInt(seed, 10)])
	return want
}

// Snapshot sums over every simulation of a rep.

func sumField(snaps []stats.Snapshot, path, field string) float64 {
	var sum float64
	for _, s := range snaps {
		v, _ := s.Field(path, field)
		sum += v
	}
	return sum
}

func sumValue(snaps []stats.Snapshot, path string) float64 {
	return sumField(snaps, path, "value")
}

// sumCores sums a per-core metric (cpu.coreN.<name>) over every core.
func sumCores(snaps []stats.Snapshot, name string) (sum float64, cores int) {
	for _, s := range snaps {
		for i := 0; ; i++ {
			v, ok := s.Field(fmt.Sprintf("cpu.core%d.%s", i, name), "value")
			if !ok {
				break
			}
			sum += v
			cores++
		}
	}
	return sum, cores
}

// instructions is the instructions retired over all cores of a rep.
func (o outcome) instructions() float64 {
	n, _ := sumCores(o.snaps, "instructions")
	return n
}

// requests is the DRAM requests served (reads + writes) in a rep.
func (o outcome) requests() float64 {
	return sumValue(o.snaps, "memctrl.reads_served") + sumValue(o.snaps, "memctrl.writes_served")
}

// commands is the DRAM commands (ACT, PRE, RD, WR, REF) issued in a rep.
func (o outcome) commands() float64 {
	var n float64
	for _, c := range []string{"act", "pre", "rd", "wr", "ref"} {
		n += sumValue(o.snaps, "dram.num_"+c)
	}
	return n
}

// ipc is the mean per-core IPC of a run; for the campaign, the mean
// over its runs.
func (o outcome) ipc() float64 {
	var total float64
	for _, s := range o.snaps {
		sum, cores := sumCores([]stats.Snapshot{s}, "ipc")
		total += sum / float64(cores)
	}
	return total / float64(len(o.snaps))
}
