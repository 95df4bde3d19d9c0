package ropsim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ropsim/internal/stats"
)

// artifactOptions is the quick scale used by the artifact tests: a
// two-benchmark Fig1 run, small enough for CI but covering baseline and
// no-refresh modes.
func artifactOptions(jobs int) (ExpOptions, *Artifact) {
	o := QuickOptions()
	o.Benches = []string{"libquantum", "bzip2"}
	o.Jobs = jobs
	o.Artifact = NewArtifact()
	return o, o.Artifact
}

// TestGoldenStatsArtifact locks the -stats-out JSON artifact of a
// quick-scale Fig1 run against a testdata snapshot, so refactors cannot
// silently change the metric namespace, the schema, or the emitted
// values. Regenerate deliberately with
//
//	go test -run TestGoldenStatsArtifact -update .
func TestGoldenStatsArtifact(t *testing.T) {
	o, art := artifactOptions(4)
	if _, err := Fig1(o); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	path := filepath.Join("testdata", "stats_fig1_quick.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("stats artifact drifted from golden (regenerate with -update if intended):\n--- got ---\n%.2000s\n--- want ---\n%.2000s", got, want)
	}
}

// TestStatsArtifactParallelEquivalence is the artifact half of the
// serial-vs-parallel guarantee: the same experiment at the same seed
// must emit a byte-identical -stats-out artifact whether runs execute
// serially or across 8 workers.
func TestStatsArtifactParallelEquivalence(t *testing.T) {
	render := func(jobs int) string {
		o, art := artifactOptions(jobs)
		if _, err := Fig1(o); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := art.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("stats artifacts differ between jobs=1 and jobs=8:\n--- serial ---\n%.2000s\n--- jobs=8 ---\n%.2000s", serial, parallel)
	}
}

// TestParallelRegistryIsolation is the race-detector guarantee behind
// the metrics layer: every simulation run owns a private registry, so
// concurrent runs (as scheduled by the parallel experiment runner)
// never share metric state. Under -race this test fails if any counter,
// gauge closure, or registry map is shared across runs; without -race
// it still checks that concurrent identical runs produce identical
// snapshots.
func TestParallelRegistryIsolation(t *testing.T) {
	cfg := Default("libquantum")
	cfg.Mode = ModeROP
	cfg.Instructions = 60_000
	cfg.ROPTrainRefreshes = 4

	const n = 8
	snaps := make([]stats.Snapshot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = res.Metrics
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatalf("concurrent identical runs produced different snapshots (run 0 vs %d)", i)
		}
	}
	if len(snaps[0].Metrics) == 0 {
		t.Fatal("snapshot is empty; registry wiring is broken")
	}
}

// TestResultMetricsConsistency cross-checks the snapshot against the
// flat Result fields that predate the registry: both must report the
// same refresh count, SRAM statistics and energy total.
func TestResultMetricsConsistency(t *testing.T) {
	cfg := Default("libquantum")
	cfg.Mode = ModeROP
	cfg.Instructions = 120_000
	cfg.ROPTrainRefreshes = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Metrics
	if s.Schema != stats.SchemaVersion {
		t.Errorf("snapshot schema = %d, want %d", s.Schema, stats.SchemaVersion)
	}
	for _, tc := range []struct {
		path, field string
		want        float64
	}{
		{"memctrl.refreshes_issued", "value", float64(res.Refreshes)},
		{"memctrl.sram_served", "value", float64(res.SRAMServed)},
		{"memctrl.rop.sram.lookups", "value", float64(res.SRAMLookups)},
		{"memctrl.rop.sram.hits", "value", float64(res.SRAMHits)},
		{"memctrl.rop.sram.hit_rate", "value", res.SRAMHitRate},
		{"energy.total_j", "value", res.Energy.Total()},
		{"sim.elapsed_bus_cycles", "value", float64(res.ElapsedBus)},
		{"sim.llc_miss_rate", "value", res.LLCMissRate},
		{"cpu.core0.ipc", "value", res.Cores[0].IPC},
	} {
		got, ok := s.Field(tc.path, tc.field)
		if !ok {
			t.Errorf("snapshot missing %s", tc.path)
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %v, Result reports %v", tc.path, got, tc.want)
		}
	}
	// The histogram must have observed exactly the demand reads the
	// latency mean covers.
	histN, ok := s.Field("memctrl.read_latency_hist", "count")
	meanN, ok2 := s.Field("memctrl.read_latency", "count")
	if !ok || !ok2 || histN != meanN {
		t.Errorf("read latency histogram count %v != mean count %v", histN, meanN)
	}
}

// TestMetricsDocComplete enforces the docs/METRICS.md contract: every
// metric path a run can emit (including the ROP-only subtree) must
// appear in the document. Core-indexed paths are documented once as
// cpu.coreN.*.
func TestMetricsDocComplete(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	cfg := Default("libquantum")
	cfg.Mode = ModeROP
	cfg.Instructions = 60_000
	cfg.ROPTrainRefreshes = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coreN := regexp.MustCompile(`\bcore\d+\b`)
	for _, p := range res.Metrics.Paths() {
		want := coreN.ReplaceAllString(p, "coreN")
		if !strings.Contains(text, "`"+want+"`") {
			t.Errorf("docs/METRICS.md does not document metric path %q", want)
		}
	}
}

// TestArtifactCSV checks the CSV rendering: a header, label-prefixed
// rows, and deterministic output.
func TestArtifactCSV(t *testing.T) {
	cfg := Default("libquantum")
	cfg.Instructions = 60_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact()
	art.Record("quick/libquantum", res.Metrics)
	var buf bytes.Buffer
	if err := art.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "label,path,kind,field,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("CSV implausibly short: %d lines", len(lines))
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "quick/libquantum,") {
			t.Fatalf("row missing label prefix: %q", l)
		}
	}
}

// TestArtifactWriteJSONMatchesEncoder holds the artifact's JSON to
// encoding/json's indented encoding of its documented layout, for an
// empty artifact and for runs with labels that need escaping.
func TestArtifactWriteJSONMatchesEncoder(t *testing.T) {
	type layout struct {
		Schema int        `json:"schema"`
		Runs   []RunStats `json:"runs"`
	}
	snap := stats.Snapshot{Schema: stats.SchemaVersion, Metrics: []stats.Value{
		{Path: "llc.hits", Kind: "counter", Fields: []stats.Field{{Name: "value", Value: 42}}},
		{Path: "sim.rate", Kind: "gauge", Fields: []stats.Field{{Name: "value", Value: 1.5e-9}}},
	}}
	art := NewArtifact()
	for _, n := range []int{0, 3} {
		for i := 0; i < n; i++ {
			art.Record([]string{"fig7/lbm/rop64", `odd "label" <&>`, "é\tx"}[i], snap)
		}
		var got, want bytes.Buffer
		if err := art.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(layout{Schema: stats.SchemaVersion, Runs: art.Snapshots()}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d runs:\nWriteJSON:\n%s\nencoding/json:\n%s", n, got.Bytes(), want.Bytes())
		}
	}
}
