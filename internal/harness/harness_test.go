package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"r2c/internal/perf"
	"r2c/internal/telemetry"
)

// mustParseJSON fails unless path holds exactly one JSON document.
func mustParseJSON(t *testing.T, path string) map[string]any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("%s is not a complete JSON document (%d bytes): %v", filepath.Base(path), len(b), err)
	}
	return v
}

func writeRules(t *testing.T, dir, rules string) string {
	t.Helper()
	p := filepath.Join(dir, "test.rules")
	if err := os.WriteFile(p, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// Every flag value a user can get wrong is rejected before any file
// exists, with the exit code the binaries always used for it.
func TestOpenRejectsBadFlagsBeforeCreatingFiles(t *testing.T) {
	dir := t.TempDir()
	badRules := writeRules(t, dir, "not a rule\n")
	for _, tc := range []struct {
		name string
		set  func(*Flags)
		code int
	}{
		{"faults", func(f *Flags) { f.Faults = "bogus" }, 2},
		{"alert-rules", func(f *Flags) { f.AlertRules = badRules }, 2},
		{"trace-format", func(f *Flags) { f.TraceFormat = "xml" }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, tr := filepath.Join(dir, tc.name+".m.json"), filepath.Join(dir, tc.name+".t.json")
			f := &Flags{MetricsOut: m, TraceOut: tr, TraceFormat: telemetry.TraceChrome}
			tc.set(f)
			run, err := f.Open(Config{Tool: "test"})
			if err == nil {
				t.Fatal("Open accepted a malformed flag value")
			}
			run.Stderr = io.Discard
			if code := run.Fail(err); code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			for _, p := range []string{m, tr} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s exists after a rejected flag (stat: %v)", filepath.Base(p), err)
				}
			}
		})
	}
}

// A setup step that fails after the sinks opened (here the journal) still
// leaves a complete metrics snapshot and a complete Chrome trace document.
func TestFailedSetupLeavesCompleteSinks(t *testing.T) {
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	f := &Flags{MetricsOut: m, TraceOut: tr, TraceFormat: telemetry.TraceChrome,
		Journal: filepath.Join(dir, "missing", "run.journal")}
	run, err := f.Open(Config{Tool: "test"})
	if err == nil {
		t.Fatal("Open succeeded with an unopenable journal")
	}
	run.Stderr = io.Discard
	if code := run.Fail(err); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	mustParseJSON(t, m)
	mustParseJSON(t, tr)
}

// A failing -incidents-out after a completed run sets exit 1 but skips no
// later step: the rings are written, the alerts are evaluated onto stdout,
// and the metrics snapshot and trace are complete.
func TestFailedArtifactKeepsLaterTeardownSteps(t *testing.T) {
	dir := t.TempDir()
	m, tr, ts := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json"), filepath.Join(dir, "ts.json")
	f := &Flags{MetricsOut: m, TraceOut: tr, TraceFormat: telemetry.TraceChrome, TimeseriesOut: ts,
		IncidentsOut: filepath.Join(dir, "missing", "inc.json"),
		AlertRules:   writeRules(t, dir, "any-cell: count(test.cells) >= 1\n")}
	run, err := f.Open(Config{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	run.Obs.Counter("test.cells").Inc()
	var out, errb bytes.Buffer
	run.Stdout, run.Stderr = &out, &errb
	if code := run.Close(0); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if !strings.Contains(out.String(), "FIRING") || !strings.Contains(out.String(), "any-cell") {
		t.Errorf("alert table missing from stdout:\n%s", out.String())
	}
	for _, want := range []string{"test: incidents:", "test: 1 alert rule(s) firing", "[time-series rings written to"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errb.String())
		}
	}
	if c := mustParseJSON(t, m)["counters"].(map[string]any); c["test.cells"] != 1.0 {
		t.Errorf("metrics snapshot counters = %v, want test.cells = 1", c)
	}
	mustParseJSON(t, tr)
	mustParseJSON(t, ts)
}

// Status notices go to stderr, so a report on stdout stays parseable.
func TestNoticesGoToStderr(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{IncidentsOut: filepath.Join(dir, "inc.json"), TimeseriesOut: filepath.Join(dir, "ts.json"),
		BaselineOut: filepath.Join(dir, "BENCH_x.json")}
	run, err := f.Open(Config{Tool: "test", Label: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	run.Stdout, run.Stderr = &out, &errb
	if code := run.Close(0); code != 0 {
		t.Fatalf("exit code %d:\n%s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", out.String())
	}
	for _, want := range []string{"[0 incident records written", "[time-series rings written", `[baseline "x" written`} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errb.String())
		}
	}
}

// -compare adopts the baseline's recorded parameters unless the flag was
// set, a completed run records them into -baseline, and a failed run
// records nothing.
func TestBaselineParams(t *testing.T) {
	dir := t.TempDir()
	b := filepath.Join(dir, "BENCH_fig.json")
	parse := func(args ...string) (*Flags, *int) {
		f, scale := &Flags{}, new(int)
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.IntVar(scale, "scale", 1, "")
		f.BindBaseline(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.AdoptBaseline(fs, map[string]*int{"scale": scale}); err != nil {
			t.Fatal(err)
		}
		return f, scale
	}
	closeRun := func(f *Flags, fail bool) {
		run, err := f.Open(Config{Tool: "test", Label: "fig"})
		if err != nil {
			t.Fatal(err)
		}
		run.Stdout, run.Stderr = io.Discard, io.Discard
		if fail {
			run.Fail(errors.New("hard error"))
		} else if code := run.Close(0); code != 0 {
			t.Fatalf("exit code %d", code)
		}
	}

	f, _ := parse("-scale", "4", "-baseline", b)
	closeRun(f, false)
	base, err := perf.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if base.Label != "fig" || base.Params["scale"] != "4" {
		t.Errorf("recorded label %q params %v, want fig with scale=4", base.Label, base.Params)
	}
	if _, scale := parse("-compare", b); *scale != 4 {
		t.Errorf("-compare adopted scale %d, want 4", *scale)
	}
	if _, scale := parse("-scale", "2", "-compare", b); *scale != 2 {
		t.Errorf("-compare overrode an explicit -scale 2 with %d", *scale)
	}

	failed := filepath.Join(dir, "BENCH_failed.json")
	f, _ = parse("-baseline", failed)
	closeRun(f, true)
	if _, err := os.Stat(failed); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a failed run wrote a baseline (stat: %v)", err)
	}
}

// The ops server serves the engine's progress while the run is live, and
// Close shuts it down — draining in-flight scrapes — before the final
// snapshot. Run under -race: scrapes read the registry concurrently.
func TestOpsServerClosesFirst(t *testing.T) {
	m := filepath.Join(t.TempDir(), "m.json")
	f := &Flags{Listen: "127.0.0.1:0", MetricsOut: m}
	run, err := f.Open(Config{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	url := run.ops.URL()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(url + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"cache_hit_rate"`) {
		t.Errorf("/progress = %d %s, want the engine's progress", resp.StatusCode, body)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			run.Obs.Counter("test.scraped").Inc()
			resp, err := client.Get(url + "/metrics")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	run.Stderr = io.Discard
	if code := run.Close(0); code != 0 {
		t.Errorf("exit code %d", code)
	}
	wg.Wait()
	mustParseJSON(t, m)
}
