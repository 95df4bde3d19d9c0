package ropsim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchLedger is the schema-2 layout of a committed BENCH_<date>.json
// (docs/PERFORMANCE.md §5), as scripts/bench_ledger.sh writes it.
type benchLedger struct {
	Schema int `json:"schema"`
	Host   struct {
		CPUModel string `json:"cpu_model"`
		CPUs     int    `json:"cpus"`
		Go       string `json:"go"`
		GOOS     string `json:"goos"`
		GOARCH   string `json:"goarch"`
	} `json:"host"`
	Runs []struct {
		Args     []string `json:"args"`
		Affinity string   `json:"affinity"`
		Result   struct {
			Correct bool                       `json:"correct"`
			Failed  int                        `json:"failed"`
			Metrics map[string]json.RawMessage `json:"metrics"`
		} `json:"result"`
	} `json:"runs"`
}

// TestPerformanceDocComplete enforces the docs/PERFORMANCE.md contract:
// the make targets, every flag of the repository benchmark (bench/) and
// every hot-path microbenchmark appear in the document, and every
// committed BENCH_*.json ledger is a complete schema-2 record of the
// benchmark's workloads and metrics as BENCHMARK.json declares them.
func TestPerformanceDocComplete(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "PERFORMANCE.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	// The make targets of the bench workflow, which must also exist in
	// the Makefile itself.
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"bench", "microbench"} {
		if !strings.Contains(text, "make "+target) {
			t.Errorf("docs/PERFORMANCE.md does not document `make %s`", target)
		}
		if !strings.Contains(string(mk), "\n"+target+":") {
			t.Errorf("Makefile has no %q target but docs/PERFORMANCE.md relies on it", target)
		}
	}

	// Every flag of the benchmark must be documented.
	benchSrc, err := os.ReadFile(filepath.Join("bench", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := regexp.MustCompile(`fs\.\w+\("([a-z-]+)"`).FindAllStringSubmatch(string(benchSrc), -1)
	if len(flags) == 0 {
		t.Fatal("found no flags in bench/main.go; regexp out of sync?")
	}
	for _, m := range flags {
		if !strings.Contains(text, "`-"+m[1]+"`") {
			t.Errorf("docs/PERFORMANCE.md does not document bench flag -%s", m[1])
		}
	}

	// Every hot-path microbenchmark must be listed.
	benchRe := regexp.MustCompile(`func (Benchmark\w+)\(`)
	for _, file := range []string{
		filepath.Join("internal", "event", "bench_test.go"),
		filepath.Join("internal", "event", "oracle_bench_test.go"),
		filepath.Join("internal", "memctrl", "bench_test.go"),
	} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range benchRe.FindAllStringSubmatch(string(src), -1) {
			if !strings.Contains(text, m[1]) {
				t.Errorf("docs/PERFORMANCE.md does not mention %s (%s)", m[1], file)
			}
		}
	}

	// The ledgers: each must hold the runs `make bench` makes, correct
	// and complete against BENCHMARK.json, and the document must name
	// the latest one and every end-to-end metric.
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or metrics")
	}
	for _, m := range spec.EndToEnd {
		if !strings.Contains(text, "`"+m.Name+"`") {
			t.Errorf("docs/PERFORMANCE.md does not name end-to-end metric %s", m.Name)
		}
	}
	ledgers, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ledgers) == 0 {
		t.Fatal("no committed BENCH_*.json ledger found")
	}
	sort.Strings(ledgers)
	if latest := ledgers[len(ledgers)-1]; !strings.Contains(text, latest) {
		t.Errorf("docs/PERFORMANCE.md does not name the latest ledger %s", latest)
	}
	for _, path := range ledgers {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var l benchLedger
		if err := json.Unmarshal(data, &l); err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if l.Schema != 2 {
			t.Errorf("%s: schema %d, want 2", path, l.Schema)
		}
		if h := l.Host; h.CPUModel == "" || h.CPUs < 1 || h.Go == "" || h.GOOS == "" || h.GOARCH == "" {
			t.Errorf("%s: incomplete host descriptor %+v", path, h)
		}
		runs := map[string]int{}
		for i, r := range l.Runs {
			runs[strings.Join(r.Args, " ")+" @"+r.Affinity] = i
		}
		check := func(args, affinity string, workloads []string, metrics []struct{ Name string }) {
			i, ok := runs[args+" @"+affinity]
			if !ok {
				t.Errorf("%s: no run with args %q on CPUs %q", path, args, affinity)
				return
			}
			res := l.Runs[i].Result
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s: run %q: correct %v, failed %d", path, args, res.Correct, res.Failed)
			}
			for _, w := range workloads {
				for _, m := range metrics {
					if _, ok := res.Metrics[w+m.Name]; !ok {
						t.Errorf("%s: run %q lacks metric %s%s", path, args, w, m.Name)
					}
				}
			}
		}
		var all []string
		for _, w := range spec.Workloads {
			all = append(all, w.Name+".")
		}
		for _, seed := range []string{"1", "2", "3"} {
			check("-seed "+seed, "all", all, spec.EndToEnd)
		}
		check("-seed 1 -trace 1", "all", all, spec.PerLayer)
		check("-workload campaign-fig7 -seed 1", "0", []string{""}, spec.EndToEnd)
	}
}
