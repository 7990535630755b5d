package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"r2c/internal/telemetry"
)

// tracer records a replay's spans with the program's span API
// (telemetry.StartSpan/Child) into an in-memory collector, from one
// goroutine, nesting each span under the innermost open one. A layer span
// wraps a call into one of the program's layers; a group span (attribute
// "group") only ties a unit of work's layer spans together. A disabled
// tracer has no sink, so every span is nil and no clock is read: the same
// replay code runs with and without tracing.
type tracer struct {
	spans *telemetry.SpanCollector // nil: disabled
	open  []*telemetry.Span
	seq   uint64 // span key, unique across the replay
}

func newTracer(on bool) *tracer {
	t := &tracer{}
	if on {
		t.spans = &telemetry.SpanCollector{}
	}
	return t
}

// on reports whether the tracer records.
func (t *tracer) on() bool { return t.spans != nil }

// begin opens a span; layer marks a call into one of the program's layers.
func (t *tracer) begin(name string, layer bool) *telemetry.Span {
	if t.spans == nil {
		return nil
	}
	t.seq++
	var sp *telemetry.Span
	if n := len(t.open); n > 0 {
		sp = t.open[n-1].Child(name, t.seq)
	} else {
		sp = telemetry.StartSpan(t.spans, name, t.seq)
	}
	if !layer {
		sp.SetAttr("group", true)
	}
	t.open = append(t.open, sp)
	return sp
}

// end closes sp, which must be the innermost open span.
func (t *tracer) end(sp *telemetry.Span) {
	if sp == nil {
		return
	}
	sp.End()
	t.open = t.open[:len(t.open)-1]
}

// recorded returns the finished spans grouped by name.
func (t *tracer) recorded() map[string][]telemetry.SpanData {
	out := map[string][]telemetry.SpanData{}
	if t.spans == nil {
		return out
	}
	for _, d := range t.spans.Spans() {
		out[d.Name] = append(out[d.Name], d)
	}
	return out
}

// layerSelf sums the self time of every layer span: its duration minus the
// part of it that its child spans cover.
func layerSelf(spans []telemetry.SpanData) time.Duration {
	self := make(map[uint64]int64, len(spans))
	for _, d := range spans {
		self[d.ID] += d.DurNs
		if d.Parent != 0 {
			self[d.Parent] -= d.DurNs
		}
	}
	var sum int64
	for _, d := range spans {
		if d.Attrs["group"] == nil {
			sum += self[d.ID]
		}
	}
	return time.Duration(sum)
}

// flatten lists every span of a recorded map.
func flatten(byName map[string][]telemetry.SpanData) []telemetry.SpanData {
	var out []telemetry.SpanData
	for _, ds := range byName {
		out = append(out, ds...)
	}
	return out
}

// unattributed is the share, in percent, of a replay's root span that no
// layer span's self time covers (0 when nothing was recorded).
func unattributed(root, spans []telemetry.SpanData) float64 {
	if len(root) != 1 || root[0].DurNs <= 0 {
		return 0
	}
	wall := time.Duration(root[0].DurNs)
	return 100 * float64(wall-layerSelf(spans)) / float64(wall)
}

// writeFile writes the recorded spans as a Chrome trace (chrome://tracing
// or Perfetto), creating the file's directory when needed.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	ct := telemetry.NewChromeTracer(f)
	if t.spans != nil {
		for _, d := range t.spans.Spans() {
			ct.RecordSpan(d)
		}
	}
	err = ct.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
