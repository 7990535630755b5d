package telemetry

import (
	"bufio"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testScheme keeps goldens easy to reason about: bounds 1, 2, 4, ..., 512.
var testScheme = LogScheme{Min: 1, Growth: 2, Buckets: 10}

func TestLogSchemeBounds(t *testing.T) {
	got := LogScheme{Min: 1, Growth: 2, Buckets: 4}.Bounds()
	want := []float64{1, 2, 4, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Bounds() = %v, want %v", got, want)
	}
	if (LogScheme{}).Bounds() != nil {
		t.Errorf("zero scheme Bounds() != nil")
	}
	for _, s := range []LogScheme{LatencyScheme, CycleScheme} {
		if !s.Valid() {
			t.Errorf("default scheme %+v not valid", s)
		}
		b := s.Bounds()
		if len(b) != s.Buckets {
			t.Errorf("scheme %+v: %d bounds, want %d", s, len(b), s.Buckets)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Errorf("scheme %+v: bounds not ascending at %d", s, i)
			}
		}
	}
	for _, s := range []LogScheme{{Min: 0, Growth: 2, Buckets: 4}, {Min: 1, Growth: 1, Buckets: 4}, {Min: 1, Growth: 2, Buckets: 0}} {
		if s.Valid() {
			t.Errorf("scheme %+v unexpectedly valid", s)
		}
		if NewLogHist(s) != nil {
			t.Errorf("NewLogHist(%+v) != nil", s)
		}
	}
}

// TestLogHistQuantileGolden pins the estimator against closed-form answers:
// linear interpolation inside the containing bucket, first bucket from 0,
// overflow clamped to the last finite bound.
func TestLogHistQuantileGolden(t *testing.T) {
	// Four observations of 3 land in the (2, 4] bucket: the quantile walks
	// linearly from 2 to 4.
	h := NewLogHist(testScheme)
	for i := 0; i < 4; i++ {
		h.Observe(3)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0, 2}, {0.25, 2.5}, {0.5, 3}, {0.75, 3.5}, {1, 4},
	} {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	// First bucket interpolates from 0, not from the bound below it.
	h2 := NewLogHist(testScheme)
	h2.Observe(0.5)
	if got := h2.Snapshot().Quantile(0.5); got != 0.5 {
		t.Errorf("first-bucket Quantile(0.5) = %v, want 0.5", got)
	}

	// Overflow clamps to the last finite bound instead of inventing mass.
	h3 := NewLogHist(testScheme)
	h3.Observe(1e6)
	if got := h3.Snapshot().Quantile(0.99); got != 512 {
		t.Errorf("overflow Quantile(0.99) = %v, want 512", got)
	}

	// Two-bucket split: 2 obs in (1,2], 2 obs in (2,4]; the median sits at
	// the shared bound, p75 halfway up the second bucket.
	h4 := NewLogHist(testScheme)
	h4.Observe(1.5)
	h4.Observe(1.5)
	h4.Observe(3)
	h4.Observe(3)
	s4 := h4.Snapshot()
	if got := s4.Quantile(0.5); got != 2 {
		t.Errorf("split Quantile(0.5) = %v, want 2", got)
	}
	if got := s4.Quantile(0.75); got != 3 {
		t.Errorf("split Quantile(0.75) = %v, want 3", got)
	}

	if got := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile(0.5) = %v, want NaN", got)
	}
}

func TestLogHistMergeAssociative(t *testing.T) {
	mk := func(vals ...float64) HistogramSnapshot {
		h := NewLogHist(testScheme)
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	a := mk(0.5, 3, 700)
	b := mk(1.5, 1.5, 100)
	c := mk(9, 10000)

	ab, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	abc1, err := ab.Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := b.Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	abc2, err := a.Merge(bc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(abc1, abc2) {
		t.Errorf("merge not associative: %+v vs %+v", abc1, abc2)
	}
	if abc1.Count != 8 {
		t.Errorf("merged Count = %d, want 8", abc1.Count)
	}

	// Merging with an empty snapshot is the identity in either order.
	if got, err := a.Merge(HistogramSnapshot{}); err != nil || !reflect.DeepEqual(got, a) {
		t.Errorf("merge with empty: %+v, %v", got, err)
	}
	if got, err := (HistogramSnapshot{}).Merge(a); err != nil || !reflect.DeepEqual(got, a) {
		t.Errorf("empty merge: %+v, %v", got, err)
	}

	// Different schemes refuse to merge rather than mislabel mass.
	other := NewLogHist(LogScheme{Min: 10, Growth: 3, Buckets: 10})
	other.Observe(15)
	if _, err := a.Merge(other.Snapshot()); err == nil {
		t.Errorf("merge across schemes did not error")
	}
}

func TestLogHistNilSafe(t *testing.T) {
	var h *LogHist
	h.Observe(1) // must not panic
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil hist Count/Sum = %d/%v", h.Count(), h.Sum())
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil hist Snapshot = %+v", s)
	}
	if (h.Scheme() != LogScheme{}) {
		t.Errorf("nil hist Scheme = %+v", h.Scheme())
	}
	var r *Registry
	if r.LogHist("x", testScheme) != nil {
		t.Errorf("nil registry LogHist != nil")
	}
}

func TestRegistryLogHist(t *testing.T) {
	reg := NewRegistry()
	h := reg.LogHist("exec.cell.seconds", testScheme)
	if h == nil {
		t.Fatal("registry LogHist = nil")
	}
	if reg.LogHist("exec.cell.seconds", LogScheme{Min: 9, Growth: 9, Buckets: 9}) != h {
		t.Errorf("second LogHist call did not return the existing histogram")
	}
	h.Observe(3)
	h.Observe(100)
	snap := reg.Snapshot()
	hs, ok := snap.Histograms["exec.cell.seconds"]
	if !ok {
		t.Fatalf("snapshot lacks the log histogram; has %v", snap.Histograms)
	}
	if hs.Count != 2 || hs.Sum != 103 {
		t.Errorf("snapshot count/sum = %d/%v, want 2/103", hs.Count, hs.Sum)
	}
}

// TestLogHistPrometheusExposition pins the property a scraper relies on: the
// /metrics endpoint serves the cell-latency log histogram as a well-formed
// Prometheus histogram — cumulative, nondecreasing _bucket series ending in
// le="+Inf", whose value equals _count.
func TestLogHistPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.LogHist("exec.cell.seconds", testScheme)
	for _, v := range []float64{0.5, 3, 3, 9, 10000} {
		h.Observe(v)
	}

	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{Registry: reg})
	if err != nil {
		t.Fatalf("ServeOpsSources: %v", err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}

	var (
		sawType    bool
		buckets    []uint64
		infCount   = uint64(math.MaxUint64)
		count      = uint64(math.MaxUint64)
		sawSum     bool
		scanner    = bufio.NewScanner(resp.Body)
		parseValue = func(line string) uint64 {
			f := strings.Fields(line)
			n, err := strconv.ParseUint(f[len(f)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
			return n
		}
	)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "# TYPE exec_cell_seconds histogram":
			sawType = true
		case strings.HasPrefix(line, "exec_cell_seconds_bucket{"):
			if strings.Contains(line, `le="+Inf"`) {
				infCount = parseValue(line)
			} else {
				buckets = append(buckets, parseValue(line))
			}
		case strings.HasPrefix(line, "exec_cell_seconds_sum"):
			sawSum = true
		case strings.HasPrefix(line, "exec_cell_seconds_count"):
			count = parseValue(line)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("scan /metrics: %v", err)
	}
	if !sawType {
		t.Errorf("missing # TYPE exec_cell_seconds histogram")
	}
	if !sawSum {
		t.Errorf("missing exec_cell_seconds_sum")
	}
	if len(buckets) != testScheme.Buckets {
		t.Errorf("%d finite buckets, want %d", len(buckets), testScheme.Buckets)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Errorf("bucket series not cumulative at %d: %v", i, buckets)
		}
	}
	if count != 5 || infCount != 5 {
		t.Errorf("count = %d, le=+Inf = %d, want 5 observations", count, infCount)
	}
	if len(buckets) > 0 && buckets[len(buckets)-1] != 4 {
		// 0.5, 3, 3, 9 are within the finite bounds; 10000 only in +Inf.
		t.Errorf("last finite bucket = %d, want 4", buckets[len(buckets)-1])
	}
}

// Satellite (PR 8): Merge on mismatched schemes must return the typed
// *BucketMismatchError so callers can distinguish schema drift from I/O
// failures, and Quantile must be well-defined at its edges.
func TestLogHistMergeBucketMismatchTyped(t *testing.T) {
	a := NewLogHist(LogScheme{Min: 1, Growth: 2, Buckets: 4})
	b := NewLogHist(LogScheme{Min: 1, Growth: 2, Buckets: 6})
	c := NewLogHist(LogScheme{Min: 2, Growth: 2, Buckets: 4})
	a.Observe(3)
	b.Observe(3)
	c.Observe(3)

	_, err := a.Snapshot().Merge(b.Snapshot())
	var bm *BucketMismatchError
	if !errors.As(err, &bm) {
		t.Fatalf("length mismatch: err = %v, want *BucketMismatchError", err)
	}
	if bm.Bucket != -1 || bm.LenA != 4 || bm.LenB != 6 {
		t.Fatalf("length mismatch detail = %+v", bm)
	}
	if !strings.Contains(bm.Error(), "4 vs 6 bounds") {
		t.Fatalf("length mismatch message = %q", bm.Error())
	}

	_, err = a.Snapshot().Merge(c.Snapshot())
	bm = nil
	if !errors.As(err, &bm) {
		t.Fatalf("bound mismatch: err = %v, want *BucketMismatchError", err)
	}
	if bm.Bucket != 0 || bm.A != 1 || bm.B != 2 {
		t.Fatalf("bound mismatch detail = %+v", bm)
	}
	if !strings.Contains(bm.Error(), "bucket 0") {
		t.Fatalf("bound mismatch message = %q", bm.Error())
	}

	// Same scheme still merges cleanly.
	if _, err := a.Snapshot().Merge(a.Snapshot()); err != nil {
		t.Fatalf("same-scheme merge: %v", err)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is NaN (callers must guard before
	// JSON-marshaling).
	empty := NewLogHist(testScheme).Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if v := empty.Quantile(q); !math.IsNaN(v) {
			t.Errorf("empty.Quantile(%v) = %v, want NaN", q, v)
		}
	}
	if v := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(v) {
		t.Errorf("zero-value snapshot Quantile = %v, want NaN", v)
	}

	// Single populated bucket: all quantiles land within that bucket's
	// range (0 to its upper bound, interpolated).
	h := NewLogHist(testScheme)
	h.Observe(3) // bucket with bound 4
	s := h.Snapshot()
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		v := s.Quantile(q)
		if math.IsNaN(v) || v < 2 || v > 4 {
			t.Errorf("single-bucket Quantile(%v) = %v, want within (2,4]", q, v)
		}
	}
	if s.Quantile(0) > s.Quantile(1) {
		t.Errorf("Quantile(0)=%v > Quantile(1)=%v", s.Quantile(0), s.Quantile(1))
	}

	// q outside [0,1] clamps; NaN q is NaN.
	if s.Quantile(-5) != s.Quantile(0) || s.Quantile(5) != s.Quantile(1) {
		t.Error("out-of-range q must clamp to [0,1]")
	}
	if !math.IsNaN(s.Quantile(math.NaN())) {
		t.Error("Quantile(NaN) must be NaN")
	}

	// Overflow-only data: quantiles clamp to the last finite bound.
	o := NewLogHist(testScheme)
	o.Observe(1e9)
	last := testScheme.Bounds()[testScheme.Buckets-1]
	if v := o.Snapshot().Quantile(0.99); v != last {
		t.Errorf("overflow Quantile = %v, want last bound %v", v, last)
	}
}
