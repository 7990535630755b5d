package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestTimeSeriesRingDecimates pins the full-ring policy: a full ring keeps
// every other point and doubles its stride instead of overwriting its
// oldest, so the survivors span the whole run, the newest sample is always
// the last point, and Dropped (plus telemetry.series.dropped) counts what
// decimation thinned away.
func TestTimeSeriesRingDecimates(t *testing.T) {
	obs := &Observer{Registry: NewRegistry()}
	ss := NewSeriesSet(4, obs)
	for i := 0; i < 10; i++ {
		ss.Series("m").Sample(float64(i), float64(i*i))
	}
	snap := ss.Snapshot(nil, 0)
	if len(snap.Series) != 1 {
		t.Fatalf("series count = %d, want 1", len(snap.Series))
	}
	sd := snap.Series[0]
	// 0..3 fill the ring; 4 decimates to {0,2} (stride 2) and commits; 5 is
	// provisional until 6 replaces it; 7 decimates to {0,4} (stride 4) and is
	// provisional until 8; 9 is the provisional newest.
	want := []float64{0, 4, 8, 9}
	if len(sd.Points) != len(want) {
		t.Fatalf("ring kept %v, want times %v", sd.Points, want)
	}
	for i, p := range sd.Points {
		if p[0] != want[i] || p[1] != want[i]*want[i] {
			t.Fatalf("point %d = %v, want [%g %g]", i, p, want[i], want[i]*want[i])
		}
	}
	if sd.Dropped != 6 {
		t.Fatalf("per-series dropped = %d, want 6", sd.Dropped)
	}
	reg := obs.Reg().Snapshot()
	if got := reg.Counters["telemetry.series.dropped"]; got != 6 {
		t.Fatalf("telemetry.series.dropped = %d, want 6", got)
	}
	if snap.Now != 9 {
		t.Fatalf("snapshot now = %g, want 9", snap.Now)
	}
}

// TestTimeSeriesDecimationCoversRun: however many samples arrive, the ring
// stays within capacity, time-ordered, keeps the first sample and the
// newest, and accounts for every sample as a point or a thinned one.
func TestTimeSeriesDecimationCoversRun(t *testing.T) {
	for _, n := range []int{7, 8, 9, 100, 1000, 12345} {
		ss := NewSeriesSet(8, nil)
		h := ss.Series("m")
		for i := 0; i < n; i++ {
			h.Sample(float64(i)*0.5, float64(i))
		}
		sd := ss.Snapshot(nil, 0).Series[0]
		if len(sd.Points) > 8 {
			t.Fatalf("n=%d: %d points exceed the capacity", n, len(sd.Points))
		}
		for i := 1; i < len(sd.Points); i++ {
			if sd.Points[i][0] <= sd.Points[i-1][0] {
				t.Fatalf("n=%d: points out of time order: %v", n, sd.Points)
			}
		}
		if first, last := sd.Points[0], sd.Points[len(sd.Points)-1]; first[0] != 0 || last[0] != float64(n-1)*0.5 {
			t.Fatalf("n=%d: points %v do not span the run", n, sd.Points)
		}
		if got := len(sd.Points) + int(sd.Dropped); got != n {
			t.Fatalf("n=%d: %d points + %d dropped != samples", n, len(sd.Points), sd.Dropped)
		}
	}
}

func TestSeriesSetSkipsNonFinite(t *testing.T) {
	ss := NewSeriesSet(8, nil)
	ss.Series("m").Sample(1, math.NaN())
	ss.Series("m").Sample(2, math.Inf(1))
	ss.Series("m").Sample(3, math.Inf(-1))
	ss.Series("m").Sample(4, 7)
	snap := ss.Snapshot(nil, 0)
	if len(snap.Series) != 1 || len(snap.Series[0].Points) != 1 {
		t.Fatalf("non-finite samples were not skipped: %+v", snap)
	}
	if p := snap.Series[0].Points[0]; p != (SeriesPoint{4, 7}) {
		t.Fatalf("surviving point = %v, want [4 7]", p)
	}
}

func TestSeriesSnapshotFilterAndLast(t *testing.T) {
	ss := NewSeriesSet(16, nil)
	for i := 0; i < 6; i++ {
		ss.Series("fleet.sojourn.p99").Sample(float64(i), float64(i))
		ss.Series(Key("fleet.variant.sojourn", "slot", "0")).Sample(float64(i), float64(i))
		ss.Series("exec.cells.done").Sample(float64(i), float64(i))
	}

	// Exact name.
	snap := ss.Snapshot([]string{"fleet.sojourn.p99"}, 0)
	if len(snap.Series) != 1 || snap.Series[0].Name != "fleet.sojourn.p99" {
		t.Fatalf("exact filter: %+v", snap.Series)
	}
	// Bare prefix matches derived series and labeled families.
	snap = ss.Snapshot([]string{"fleet.sojourn", "fleet.variant.sojourn"}, 0)
	if len(snap.Series) != 2 {
		t.Fatalf("prefix filter kept %d series, want 2", len(snap.Series))
	}
	// A labeled reference is exact-only.
	snap = ss.Snapshot([]string{Key("fleet.variant.sojourn", "slot", "0")}, 0)
	if len(snap.Series) != 1 {
		t.Fatalf("labeled filter kept %d series, want 1", len(snap.Series))
	}
	// last trims each series to its newest points.
	snap = ss.Snapshot(nil, 2)
	for _, sd := range snap.Series {
		if len(sd.Points) != 2 || sd.Points[0][0] != 4 || sd.Points[1][0] != 5 {
			t.Fatalf("last=2 kept %v for %s", sd.Points, sd.Name)
		}
	}
}

func TestSeriesSetNilSafety(t *testing.T) {
	var ss *SeriesSet
	ss.Series("m").Sample(1, 2) // must not panic
	if got := ss.Now(); got != 0 {
		t.Fatalf("nil Now = %g", got)
	}
	snap := ss.Snapshot(nil, 0)
	if snap == nil || len(snap.Series) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal nil snapshot: %v", err)
	}
	if !bytes.Contains(body, []byte(`"series": []`)) && !bytes.Contains(body, []byte(`"series":[]`)) {
		t.Fatalf("nil snapshot marshals %s, want an empty series array", body)
	}
}

func TestSeriesWriteJSONIsValid(t *testing.T) {
	ss := NewSeriesSet(8, nil)
	ss.Series("a").Sample(0.5, 1)
	ss.Series("b").Sample(1.5, 2)
	var buf bytes.Buffer
	if err := ss.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap SeriesSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(snap.Series) != 2 || snap.Series[0].Name != "a" || snap.Series[1].Name != "b" {
		t.Fatalf("round-trip snapshot: %+v", snap)
	}
	if snap.Now != 1.5 {
		t.Fatalf("round-trip now = %g", snap.Now)
	}
}

// TestSeriesSampleAllocatesNothing: a resolved handle samples — decimation
// and the dropped counter included — without allocating.
func TestSeriesSampleAllocatesNothing(t *testing.T) {
	ss := NewSeriesSet(16, &Observer{Registry: NewRegistry()})
	h := ss.Series("m")
	x := 0.0
	if n := testing.AllocsPerRun(1000, func() { x++; h.Sample(x, x) }); n != 0 {
		t.Fatalf("Sample allocates %.1f times per call", n)
	}
}
