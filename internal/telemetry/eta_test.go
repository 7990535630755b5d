package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestFormatETA(t *testing.T) {
	for _, tc := range []struct {
		ms   float64
		want string
	}{
		{math.NaN(), "n/a"},
		{math.Inf(1), "n/a"},
		{math.Inf(-1), "n/a"},
		{-1, "n/a"},
		{0, "0s"},
		{250, "250ms"},
		{1500, "2s"},
		{90_000, "1m30s"},
	} {
		if got := FormatETA(tc.ms); got != tc.want {
			t.Errorf("FormatETA(%v) = %q, want %q", tc.ms, got, tc.want)
		}
	}
}

// A progress source that leaks a NaN into the payload must yield a JSON
// error response, not a broken half-written body.
func TestProgressUnmarshalableSource(t *testing.T) {
	s, err := ServeOpsSources("127.0.0.1:0", OpsSources{Registry: NewRegistry(), Progress: func() any {
		return map[string]float64{"eta_ms": math.NaN()}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(s.URL() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/progress with NaN source = %d, want 500", resp.StatusCode)
	}
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body.String()), &payload); err != nil {
		t.Fatalf("error response is not JSON: %v\n%s", err, body.String())
	}
	if payload.Error == "" {
		t.Error("error response carries no message")
	}
}
