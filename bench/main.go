// Command bench is the repository benchmark: the one way this repository
// measures its performance. It runs five workloads (BENCHMARK.json says
// why each was chosen), checks every rep's output against committed
// SHA-256 digests, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 106, "failed": 0, "metrics": {"ns_per_command": {"value": 941.6, "unit": "ns"}, ...}}
//
// By default it runs every workload, one closed-loop client doing one
// rep at a time, round-robin across workloads, and reports the
// end-to-end metrics. -trace 1 instead reports the per-layer metrics
// from a profiled pass and a traced pass (see README.md). It runs from
// bench/:
//
//	go run -C bench .                                   # all workloads, 100 reps each
//	go run -C bench . -workload replay-zoo -seconds 10
//	go run -C bench . -trace 1                          # per-layer metrics
//	go run -C bench . -sets 2                           # repeatability self-check
//	bash bench/run.sh --workload wl1-baseline --seed 2 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all to interleave every workload")
	seed := fs.Int64("seed", 1, "seed the workloads' inputs are made from")
	seconds := fs.Float64("seconds", 0, "when > 0, measure for this many seconds instead of a fixed rep count")
	traced := fs.Int("trace", 0, "1: report the per-layer metrics of a profiled and a traced pass")
	sets := fs.Int("sets", 1, "timed sets to run; with more than one, check their spread against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traced < 0 || *traced > 1 || *sets < 1 || (*traced == 1 && *sets > 1) {
		fmt.Fprintln(stderr, "bench: bad arguments (-trace takes 0 or 1; -sets applies to the timed pass only)")
		return 2
	}
	spec, err := loadSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ws := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []benchWorkload{w}
	}
	o := options{seed: *seed, seconds: *seconds, jobs: runtime.NumCPU()}
	if *traced == 1 {
		return traceMain(ws, o, spec, stdout, stderr)
	}
	return timedMain(ws, o, *sets, spec, stdout, stderr)
}

// timedMain runs the end-to-end measurement, sets times over.
func timedMain(ws []benchWorkload, o options, sets int, spec *benchSpec, stdout, stderr io.Writer) int {
	all := make([][]*runStats, sets)
	for i := range all {
		rs, ref, err := measureSet(ws, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "set %d/%d: reference kernel median %.2f ms (nominal %.2f ms)\n", i+1, sets, ref, ms(referenceNominal))
		for _, r := range rs {
			title := fmt.Sprintf("set %d/%d  %s  seed %d: %d reps, %d failed", i+1, sets, r.w.name, o.seed, len(r.reps), r.failed)
			printTable(stderr, title, spec.EndToEnd, r.endToEnd(), r.errs)
			fmt.Fprintf(stderr, "  %s\n", r.summary())
		}
		all[i] = rs
	}
	res := newResult()
	code := 0
	for wi, w := range ws {
		perSet := make([]map[string]float64, sets)
		for i := range all {
			r := all[i][wi]
			perSet[i] = r.endToEnd()
			res.Attempted += r.attempted
			res.Failed += r.failed
		}
		got := map[string]float64{}
		for _, m := range spec.EndToEnd {
			vs := make([]float64, sets)
			for i := range perSet {
				vs[i] = perSet[i][m.Name]
			}
			got[m.Name] = median(vs)
			if sets > 1 {
				// setup_s is printed but not gated. It is the median of
				// only setupRounds set-ups per set, so two sets differ by
				// far more noise than the timed metrics' hundreds of reps;
				// a change in set-up cost shows when medians over many
				// runs are compared (README.md).
				sp := spread(vs)
				verdict := "ok"
				if m.Name == "setup_s" {
					verdict = "not gated"
				} else if sp > m.Bound {
					verdict = "OVER BOUND"
					code = 1
				}
				fmt.Fprintf(stderr, "spread %-16s %-24s %s  spread %.3f  bound %.3f  %s\n",
					w.name, m.Name, fmtValues(vs), sp, m.Bound, verdict)
			}
		}
		if err := res.add(prefix(ws, w), spec.EndToEnd, got); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return res.finish(stdout, stderr, code)
}

// traceMain runs the per-layer measurement of each workload in turn: a
// CPU profile is process-wide, so the workloads cannot interleave here.
func traceMain(ws []benchWorkload, o options, spec *benchSpec, stdout, stderr io.Writer) int {
	cost := calibrate()
	res := newResult()
	code := 0
	spans := map[string]any{}
	for _, w := range ws {
		lr, err := tracePass(w, o, cost)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		r := &lr.stats
		res.Attempted += r.attempted
		res.Failed += r.failed
		title := fmt.Sprintf("%s  seed %d: %d reps, %d failed", w.name, o.seed, r.attempted, r.failed)
		printTable(stderr, title, spec.PerLayer, lr.metrics, r.errs)
		if lr.metrics == nil {
			fmt.Fprintf(stderr, "bench: %s: no rep passed its digest check\n", w.name)
			code = 1
			continue
		}
		if lr.coverage < minCoverage {
			fmt.Fprintf(stderr, "bench: %s: profile coverage %.3f is below %.2f\n", w.name, lr.coverage, minCoverage)
			code = 1
		}
		if err := res.add(prefix(ws, w), spec.PerLayer, lr.metrics); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		spans[w.name] = map[string]any{"tree": lr.spans.root.tree(), "coarse": lr.spans.coarse}
	}
	if err := writeSpans(spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return res.finish(stdout, stderr, code)
}

// outDir holds the files a traced run writes: the CPU profiles and the
// spans.
var outDir = filepath.Join(repoRoot, ".bench_build")

// writeSpans writes every traced workload's spans, aggregated per
// (parent, name) plus the coarse spans one by one.
func writeSpans(spans map[string]any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "spans.json"), data, 0o644)
}

// prefix scopes metric names by workload when several run at once.
func prefix(ws []benchWorkload, w benchWorkload) string {
	if len(ws) == 1 {
		return ""
	}
	return w.name + "."
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult() *result {
	return &result{Metrics: map[string]metricValue{}}
}

// add records got under prefix, which must hold exactly the declared
// metrics, each a finite number.
func (res *result) add(prefix string, declared []metricSpec, got map[string]float64) error {
	if len(got) != len(declared) {
		return fmt.Errorf("harness computes %d metrics, BENCHMARK.json declares %d", len(got), len(declared))
	}
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which the harness does not compute", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s%s is %v", prefix, m.Name, v)
		}
		res.Metrics[prefix+m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return nil
}

// finish prints the result line and returns the exit code: 1 when any
// rep failed or code says so.
func (res *result) finish(stdout, stderr io.Writer, code int) int {
	res.Correct = res.Failed == 0
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !res.Correct {
		return 1
	}
	return code
}

func printTable(w io.Writer, title string, declared []metricSpec, got map[string]float64, errs []error) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for i, err := range errs {
		if i == 3 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}
	if got == nil {
		return
	}
	for _, m := range declared {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.Name, got[m.Name], m.Unit)
	}
}

func fmtValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the
// declared metrics with their units and regression bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + ": no metrics declared")
	}
	return &s, nil
}
