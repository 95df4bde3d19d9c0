package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ropsim"
	"ropsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json")

// composeMatches runs cfg through sim.Run and composeRun and fails
// unless both results, snapshot bytes included, are identical.
func composeMatches(t *testing.T, label string, cfg sim.Config) {
	t.Helper()
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("%s: sim.Run: %v", label, err)
	}
	got, err := composeRun(context.Background(), cfg, newTracer())
	if err != nil {
		t.Fatalf("%s: composeRun: %v", label, err)
	}
	var wantJSON, gotJSON bytes.Buffer
	if err := want.Metrics.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := got.Metrics.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) || !reflect.DeepEqual(want, got) {
		t.Errorf("%s: traced composition differs from sim.Run", label)
	}
}

func TestComposeMatchesSimRun(t *testing.T) {
	for _, w := range workloads {
		if w.config == nil {
			continue
		}
		cfg, err := w.config(1)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Instructions > 200_000 {
			cfg.Instructions = 200_000
		}
		composeMatches(t, w.name, cfg)
	}
}

func TestComposeMatchesSimRunAllModes(t *testing.T) {
	modes := []ropsim.Mode{
		ropsim.ModeBaseline, ropsim.ModeNoRefresh, ropsim.ModeROP,
		ropsim.ModeElastic, ropsim.ModePausing, ropsim.ModeBankRefresh,
		ropsim.ModeROPBank, ropsim.ModeSubarrayRefresh, ropsim.ModeOutOfOrderBank,
		ropsim.ModeDARP, ropsim.ModeSARP,
	}
	for _, m := range modes {
		cfg := sim.Default("libquantum")
		cfg.Mode = m
		cfg.Instructions = 300_000
		cfg.ROPTrainRefreshes = 8
		composeMatches(t, m.String(), cfg)
	}
}

// lastJSON runs the harness with args and decodes its result line.
func lastJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("bench %v: no result line: %v\n%s", args, err, errOut.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("bench %v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, errOut.String())
	}
	return res
}

func TestMetricNamesMatchSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, names []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if !reflect.DeepEqual(specWorkloads, names) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", specWorkloads, names)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(declared []metricSpec, args ...string) {
		res := lastJSON(t, args...)
		var want, got []string
		for _, m := range declared {
			want = append(want, m.Name)
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
		}
		for name, v := range res.Metrics {
			got = append(got, name)
			if v.Unit == "" {
				t.Errorf("metric %s has no unit", name)
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("bench %v emits %v, BENCHMARK.json declares %v", args, got, want)
		}
	}
	check(spec.EndToEnd, "-workload", "replay-zoo", "-seconds", "0.1")
	check(spec.PerLayer, "-workload", "replay-zoo", "-seconds", "0.2", "-trace", "1")
	if !testing.Short() {
		// The campaign's traced runs merge their spans from several workers.
		check(spec.PerLayer, "-workload", "campaign-fig7", "-seconds", "0.2", "-trace", "1")
	}
}

func TestP90LeavesTenOfHundredBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	p := p90(xs)
	beyond := 0
	for _, x := range xs {
		if x > p {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("p90 = %v leaves %d of 100 samples beyond it, want 10", p, beyond)
	}
}

func campaignDigest(t *testing.T, seed int64, jobs int) string {
	t.Helper()
	w, _ := findWorkload("campaign-fig7")
	s, err := newSession(w, seed, jobs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.rep(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.digest
}

func TestCampaignDigestIndependentOfJobs(t *testing.T) {
	if a, b := campaignDigest(t, 1, 1), campaignDigest(t, 1, 2); a != b {
		t.Errorf("campaign-fig7 digest at Jobs 1 = %.12s, at Jobs 2 = %.12s", a, b)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ function, file, layer string }{
		{"ropsim/internal/memctrl.(*Controller).tick.func1", "/src/internal/memctrl/controller.go", "memctrl.sched"},
		{"ropsim/internal/memctrl.(*Controller).refreshStep", "/src/internal/memctrl/refresh.go", "memctrl.refresh"},
		{"ropsim/internal/core.(*Engine).ProbeRead", "/src/internal/core/engine.go", "rop"},
		{"ropsim/internal/cache.(*Cache).Access", "/src/internal/cache/cache.go", "llc"},
		{"ropsim/internal/runner.Run[go.shape.*uint8]", "/src/internal/runner/runner.go", "runner"},
		{"ropsim.(*Artifact).WriteJSON", "/src/artifact.go", "ropsim"},
		{"runtime.mallocgc", "malloc.go", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKey", "map.go", "runtime"},
		{"gcWriteBarrier", "asm_amd64.s", "runtime"},
		{"main.(*session).rep", "/src/bench/workloads.go", ""},
		{"encoding/json.(*encodeState).marshal", "encode.go", ""},
		{"sort.Float64s", "sort.go", ""},
	} {
		if layer := layerOf(c.function, c.file); layer != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.function, layer, c.layer)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: ropbench
Type: cpu
Showing nodes accounting for 400ms, 100% of 400ms total
      flat  flat%   sum%        cum   cum%
     200ms 50.00% 50.00%      200ms 50.00%  ropsim/internal/memctrl.(*Controller).issueFrom /a b/internal/memctrl/controller.go:856
     100ms 25.00% 75.00%      100ms 25.00%  ropsim/internal/dram.maxCycle /a b/internal/dram/device.go:414 (inline)
      60ms 15.00% 90.00%       60ms 15.00%  runtime.mallocgc /go/src/runtime/malloc.go:1363
      40ms 10.00%   100%       40ms 10.00%  sort.Search /go/src/sort/search.go:60 (inline)
         0     0%   100%      400ms   100%  main.main /a b/bench/main.go:36
`)
	shares, coverage, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"memctrl.sched": 0.5, "dram": 0.25, "runtime": 0.15}
	if !reflect.DeepEqual(shares, want) || coverage != 0.9 {
		t.Errorf("parseTop = %v, coverage %v; want %v, coverage 0.9", shares, coverage, want)
	}
}

// TestDigests checks the committed digests of every workload at the
// committed seeds; with -update it rewrites them instead.
func TestDigests(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs every workload at full size")
	}
	var mu sync.Mutex
	all := map[string]map[string][]string{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				got := map[string][]string{}
				for _, seed := range digestSeeds {
					s, err := newSession(w, seed, 2)
					if err != nil {
						t.Fatal(err)
					}
					key := strconv.FormatInt(seed, 10)
					for k := 0; k < variants; k++ {
						out, err := s.rep(nil)
						if err != nil {
							t.Fatal(err)
						}
						got[key] = append(got[key], out.digest)
						if !*update {
							if err := s.check(out); err != nil {
								t.Error(err)
							}
						}
					}
				}
				mu.Lock()
				all[w.name] = got
				mu.Unlock()
			})
		}
	})
	if *update && !t.Failed() {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "digests.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
