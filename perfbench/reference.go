package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"r2c/internal/perf"
)

// Committed baselines, relative to the repository root.
const (
	figure6Baseline = "BENCH_figure6.json"
	table3Baseline  = "BENCH_table3.json"
)

// referenceFile holds the modeled outputs captured for the workload sizes
// no committed baseline covers (16-trial attack matrix, 2000-request
// fleet), keyed by workload name; it lives next to this package.
const referenceFile = "reference.json"

// rows are a pass's modeled outputs, keyed like telemetry metrics.
type rows map[string]float64

// committedRows reads the deterministic metrics of a committed baseline
// through internal/perf's loader. keep selects which of them this
// benchmark reproduces (nil keeps all).
func committedRows(path string, keep func(key string) bool) (rows, error) {
	b, err := perf.Load(path)
	if err != nil {
		return nil, err
	}
	out := rows{}
	for _, k := range b.MetricKeys() {
		m := b.Metrics[k]
		if m.Class == perf.ClassDeterministic && (keep == nil || keep(k)) {
			out[k] = m.Value
		}
	}
	return out, nil
}

// capturedRows reads one workload's entry of reference.json.
func capturedRows(root, name string) (rows, error) {
	data, err := os.ReadFile(filepath.Join(root, "perfbench", referenceFile))
	if err != nil {
		return nil, err
	}
	var all map[string]rows
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	r, ok := all[name]
	if !ok {
		return nil, fmt.Errorf("%s has no %q entry", referenceFile, name)
	}
	return r, nil
}

// compare checks got against want key by key. Modeled outputs are
// deterministic and the reference files hold shortest round-trip decimals,
// so values must match exactly. It returns one line per mismatch and the
// mismatched keys.
func compare(got, want rows) (problems []string, bad []string) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: missing, want %v", k, want[k]))
			bad = append(bad, k)
		case g != want[k]:
			problems = append(problems, fmt.Sprintf("%s: got %v, want %v", k, g, want[k]))
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: not in the reference", k))
			bad = append(bad, k)
		}
	}
	return problems, bad
}

// writeReference replaces one workload's entry of reference.json.
func writeReference(root, name string, r rows) error {
	path := filepath.Join(root, "perfbench", referenceFile)
	all := map[string]rows{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", referenceFile, err)
		}
	}
	all[name] = r
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
