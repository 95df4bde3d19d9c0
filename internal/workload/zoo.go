package workload

import "sort"

// zoo is the server-class workload catalog: synthetic models of memory
// behaviours the SPEC-like table does not cover. Zoo profiles are
// deliberately kept out of Names()/PaperOrder() — the paper's
// twelve-benchmark evaluation stays exactly the paper's — but Get
// resolves them, so any harness flag that takes a benchmark name takes
// a zoo name too. The committed traces under testdata/traces/
// are captured from these profiles (docs/TRACES.md has the catalog).
var zoo = map[string]Profile{
	"pointer": {
		Name: "pointer", Intensive: true,
		// Pointer chasing: dependent loads over a footprint far beyond
		// the LLC, no useful stride, almost pure reads. The random delta
		// dominates so neither the row buffer nor the ROP table gets
		// traction — the adversarial case for prefetching.
		OnGapMean:  110,
		StreamFrac: 0.9, WSLines: linesPerMiB / 2, FootprintLines: 64 * linesPerMiB,
		ReadFrac: 0.98,
		Deltas: []DeltaChoice{
			{Random: true, Weight: 0.9},
			{Seq: []int64{1}, Weight: 0.1},
		},
	},
	"scan": {
		Name: "scan", Intensive: true,
		// Scan-heavy analytics: long sequential sweeps over a large
		// region, read-mostly, always on — maximal row locality and the
		// friendliest case for delta prediction.
		OnGapMean:  55,
		StreamFrac: 0.97, WSLines: linesPerMiB / 4, FootprintLines: 96 * linesPerMiB,
		ReadFrac: 0.9,
		Deltas: []DeltaChoice{
			{Seq: []int64{1}, Weight: 0.85},
			{Seq: []int64{1, 1, 2}, Weight: 0.15},
		},
	},
	"memcached": {
		Name: "memcached", Intensive: true,
		// Memcached-like serving: bursts of requests against a hot
		// object set with irregular access, GET-dominated with a SET
		// tail, idle gaps between request waves.
		OnGapMean: 140, OnMeanInsts: 220_000, OffMeanInsts: 180_000,
		StreamFrac: 0.75, WSLines: 4 * linesPerMiB, FootprintLines: 32 * linesPerMiB,
		ReadFrac: 0.85,
		Deltas: []DeltaChoice{
			{Random: true, Weight: 0.75},
			{Seq: []int64{1}, Weight: 0.25},
		},
	},
}

// ZooNames returns the server-class zoo benchmark names in
// deterministic (sorted) order.
func ZooNames() []string {
	out := make([]string, 0, len(zoo))
	for n := range zoo {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
