package ropsim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ropsim/internal/stats"
)

// Artifact collects the per-run metric snapshots of an evaluation into
// one machine-readable document: each completed simulation records its
// registry snapshot under its run label ("fig1/libquantum/base",
// "alone/lbm", ...). Serialization is deterministic — runs sorted by
// label, stable key order, schema-versioned — so two evaluations of the
// same configuration and seed produce byte-identical artifacts at any
// -jobs count (golden tests and cross-PR diffs rely on this).
//
// Record is safe for concurrent use: parallel runner workers feed one
// shared artifact. Reads (WriteJSON, Snapshots, Len) must not race with
// in-flight runs; the harness writes the artifact after every batch has
// completed.
type Artifact struct {
	mu   sync.Mutex
	runs map[string]stats.Snapshot
}

// NewArtifact returns an empty artifact collector.
func NewArtifact() *Artifact {
	return &Artifact{runs: map[string]stats.Snapshot{}}
}

// Record stores one run's snapshot under its label. Recording the same
// label again overwrites the previous snapshot (experiment labels are
// unique within an evaluation; a repeat is a re-run of the same
// configuration).
func (a *Artifact) Record(label string, s stats.Snapshot) {
	a.mu.Lock()
	a.runs[label] = s
	a.mu.Unlock()
}

// Len reports the number of recorded runs.
func (a *Artifact) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.runs)
}

// RunStats is one recorded run inside a serialized artifact.
type RunStats struct {
	// Label identifies the run (experiment id / benchmark / variant).
	Label string `json:"label"`
	// Metrics is the run's registry snapshot.
	Metrics stats.Snapshot `json:"metrics"`
}

// Snapshots returns the recorded runs sorted by label.
func (a *Artifact) Snapshots() []RunStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	labels := make([]string, 0, len(a.runs))
	for l := range a.runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]RunStats, len(labels))
	for i, l := range labels {
		out[i] = RunStats{Label: l, Metrics: a.runs[l]}
	}
	return out
}

// WriteJSON serializes the artifact as indented JSON with runs sorted
// by label: {"schema": stats.SchemaVersion, "runs": [{"label": ...,
// "metrics": <snapshot>}, ...]} (docs/METRICS.md). Output is
// byte-deterministic for deterministic runs, and byte-identical to
// encoding/json's indented encoding of that layout.
func (a *Artifact) WriteJSON(w io.Writer) error {
	b := fmt.Appendf(nil, "{\n  \"schema\": %d,\n  \"runs\": [", stats.SchemaVersion)
	runs := a.Snapshots()
	for i, run := range runs {
		if i > 0 {
			b = append(b, ',')
		}
		label, err := json.Marshal(run.Label)
		if err != nil {
			return err
		}
		b = append(b, "\n    {\n      \"label\": "...)
		b = append(b, label...)
		b = append(b, ",\n      \"metrics\": "...)
		if b, err = run.Metrics.AppendJSON(b, 3); err != nil {
			return err
		}
		b = append(b, "\n    }"...)
	}
	if len(runs) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	_, err := w.Write(b)
	return err
}

// WriteCSV serializes the artifact as "label,path,kind,field,value"
// rows (with a header), one row per metric field per run, in label then
// path order.
func (a *Artifact) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "label,path,kind,field,value\n"); err != nil {
		return err
	}
	for _, run := range a.Snapshots() {
		var sb strings.Builder
		if err := run.Metrics.WriteCSV(&sb); err != nil {
			return err
		}
		rows := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
		label := run.Label
		if strings.ContainsAny(label, ",\"") {
			label = `"` + strings.ReplaceAll(label, `"`, `""`) + `"`
		}
		for _, row := range rows[1:] { // skip the per-snapshot header
			if _, err := io.WriteString(w, label+","+row+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFile writes the artifact to path, choosing the format from the
// extension: ".csv" selects CSV, anything else JSON.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("stats artifact: %w", err)
	}
	if filepath.Ext(path) == ".csv" {
		err = a.WriteCSV(f)
	} else {
		err = a.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("stats artifact %s: %w", path, err)
	}
	return nil
}
