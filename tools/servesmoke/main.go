// Command servesmoke drives the serving-fleet smoke test end to end: it is
// what `make serve-smoke` runs. Beyond the original detect→quarantine→
// rebuild→resume gate (-require-recover), it scrapes the live observatory
// mid-run — /timeseries must serve well-formed non-empty ring snapshots,
// /dashboard the self-contained page, /healthz a liveness verdict — then
// pins the -timeseries-out artifact byte-identical between -jobs 1 and
// -jobs 8, and finally proves the windowed-alert contract both ways: a clean
// run exits 0 with the rules quiet, and a run with injected service-time
// degradation exits 1 with the windowed rule FIRING.
//
// Usage: servesmoke <path-to-r2cserve>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// rules is the windowed alert the smoke runs under. The threshold sits two
// orders of magnitude above the workload's deterministic modeled service
// time (~7e-7s for the nginx request) and two below the degraded tail
// (growth capped at 1e4×), so it cannot fire clean and cannot miss degraded.
const rules = `# written by tools/servesmoke
degraded-tail: p99_over(fleet.variant.sojourn, 1000000) > 0.0001
`

// fleetArgs is the shared schedule: MVEE-supervised fleet under scripted
// corruption pressure, same shape as the original serve-smoke target.
func fleetArgs(requests string) []string {
	return []string{
		"-variants", "4", "-mvee", "2", "-requests", requests,
		"-attack", "overwrite", "-attack-start", "50", "-attack-every", "25",
	}
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: servesmoke <path-to-r2cserve>")
		os.Exit(2)
	}
	serve := os.Args[1]

	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	rulesPath := filepath.Join(tmp, "smoke.rules")
	if err := os.WriteFile(rulesPath, []byte(rules), 0o644); err != nil {
		fatal(err)
	}

	observatoryRun(serve, rulesPath)
	timeseriesDeterminismRun(serve, rulesPath, tmp)
	degradedRun(serve, rulesPath, tmp)
	fmt.Println("servesmoke: all gates passed")
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "servesmoke:", v)
	os.Exit(1)
}

// seriesSnapshot mirrors telemetry.SeriesSnapshot's JSON shape (the tool
// stays decoupled from the internal package on purpose: it validates the
// wire format a real consumer would parse).
type seriesSnapshot struct {
	Now    float64 `json:"now"`
	Series []struct {
		Name    string       `json:"name"`
		Dropped uint64       `json:"dropped"`
		Points  [][2]float64 `json:"points"`
	} `json:"series"`
}

func decodeSeries(body []byte) (*seriesSnapshot, error) {
	var snap seriesSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("timeseries body is not valid JSON: %w\n%s", err, body)
	}
	for _, sd := range snap.Series {
		if sd.Name == "" {
			return nil, fmt.Errorf("timeseries snapshot carries an unnamed series:\n%s", body)
		}
		for i := 1; i < len(sd.Points); i++ {
			if sd.Points[i][0] < sd.Points[i-1][0] {
				return nil, fmt.Errorf("series %s time axis goes backwards at point %d", sd.Name, i)
			}
		}
	}
	return &snap, nil
}

// observatoryRun is the live half: a long-enough clean run with -listen,
// scraped mid-flight, that must still pass -require-recover and exit 0 with
// the windowed rule quiet.
func observatoryRun(serve, rulesPath string) {
	// 20000 requests keep the run going for a couple of wall seconds, long
	// enough for the scrapes below to land mid-run.
	args := append(fleetArgs("20000"),
		"-require-recover", "-listen", "127.0.0.1:0",
		"-alert-rules", rulesPath,
		"-metrics-out", "SERVE_metrics.json",
		"nginx")
	cmd := exec.Command(serve, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}

	// The ops URL arrives on stderr as "[ops endpoint listening on URL]".
	urlCh := make(chan string, 1)
	var stderr bytes.Buffer
	go func() {
		sc := bufio.NewScanner(io.TeeReader(stderrPipe, &stderr))
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "[ops endpoint listening on "); ok {
				urlCh <- strings.TrimSuffix(rest, "]")
			}
		}
	}()

	var base string
	select {
	case base = <-urlCh:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		fatal("ops endpoint never announced itself on stderr")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, []byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	// Poll /timeseries until the rings carry data — the serve loop samples on
	// simulated ticks, so any request progress fills them fast. Every
	// response along the way must be well-formed.
	deadline := time.Now().Add(30 * time.Second)
	sampled := false
	for time.Now().Before(deadline) {
		code, body, err := get("/timeseries")
		if err != nil {
			break // the run finished and closed the listener
		}
		if code != 200 {
			cmd.Process.Kill()
			fatal(fmt.Sprintf("/timeseries = %d: %s", code, body))
		}
		snap, derr := decodeSeries(body)
		if derr != nil {
			cmd.Process.Kill()
			fatal(derr)
		}
		if len(snap.Series) > 0 && len(snap.Series[0].Points) > 0 {
			sampled = true
			fmt.Printf("servesmoke: mid-run /timeseries: %d series at sim t=%.3gs\n", len(snap.Series), snap.Now)
			break
		}
	}
	if !sampled {
		cmd.Process.Kill()
		fatal("never saw a non-empty /timeseries snapshot mid-run")
	}

	// Filtered view: ?series= + ?last= must narrow, not error.
	if code, body, err := get("/timeseries?series=fleet.sojourn&last=8"); err == nil {
		if code != 200 {
			cmd.Process.Kill()
			fatal(fmt.Sprintf("/timeseries?series= = %d", code))
		}
		snap, derr := decodeSeries(body)
		if derr != nil {
			cmd.Process.Kill()
			fatal(derr)
		}
		for _, sd := range snap.Series {
			if !strings.HasPrefix(sd.Name, "fleet.sojourn") {
				cmd.Process.Kill()
				fatal(fmt.Sprintf("?series=fleet.sojourn returned %q", sd.Name))
			}
			if len(sd.Points) > 8 {
				cmd.Process.Kill()
				fatal(fmt.Sprintf("?last=8 returned %d points", len(sd.Points)))
			}
		}
	}

	// The dashboard must be served, self-contained HTML.
	if code, body, err := get("/dashboard"); err == nil {
		page := string(body)
		switch {
		case code != 200:
			cmd.Process.Kill()
			fatal(fmt.Sprintf("/dashboard = %d", code))
		case !strings.Contains(page, "<!DOCTYPE html>"), !strings.Contains(page, "id=\"health\""):
			cmd.Process.Kill()
			fatal("/dashboard is not the observatory page")
		case strings.Contains(page, "src=\"http"), strings.Contains(page, "href=\"http"):
			cmd.Process.Kill()
			fatal("/dashboard references an external asset")
		}
		fmt.Printf("servesmoke: mid-run /dashboard: %d bytes, self-contained\n", len(body))
	}

	// /healthz answers 200 "ok" or 503 "degraded: ..." depending on whether a
	// heal is in flight at scrape time; anything else is a failure.
	if code, body, err := get("/healthz"); err == nil {
		ok := code == 200 && strings.Contains(string(body), "ok")
		degraded := code == 503 && strings.Contains(string(body), "degraded:")
		if !ok && !degraded {
			cmd.Process.Kill()
			fatal(fmt.Sprintf("/healthz = %d %q", code, body))
		}
		fmt.Printf("servesmoke: mid-run /healthz: %d %s", code, body)
	}

	err = cmd.Wait()
	if err != nil {
		fatal(fmt.Sprintf("clean observatory run failed (%v)\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String()))
	}
	if out := stdout.String(); strings.Contains(out, "FIRING") {
		fatal("clean run fired the windowed alert:\n" + out)
	}
	fmt.Println("servesmoke: clean observatory run exited 0, rules quiet")
}

// timeseriesDeterminismRun pins the CLI artifact contract: the same schedule
// at -jobs 1 and -jobs 8 writes byte-identical -timeseries-out files.
func timeseriesDeterminismRun(serve, rulesPath, tmp string) {
	outs := map[string]string{"1": filepath.Join(tmp, "ts-jobs1.json"), "8": filepath.Join(tmp, "ts-jobs8.json")}
	for jobs, out := range outs {
		args := append(fleetArgs("400"),
			"-jobs", jobs, "-alert-rules", rulesPath, "-timeseries-out", out, "nginx")
		cmd := exec.Command(serve, args...)
		if b, err := cmd.CombinedOutput(); err != nil {
			fatal(fmt.Sprintf("-jobs %s run failed (%v):\n%s", jobs, err, b))
		}
	}
	a, err := os.ReadFile(outs["1"])
	if err != nil {
		fatal(err)
	}
	b, err := os.ReadFile(outs["8"])
	if err != nil {
		fatal(err)
	}
	if !bytes.Equal(a, b) {
		fatal("-timeseries-out differs between -jobs 1 and -jobs 8")
	}
	if _, err := decodeSeries(a); err != nil {
		fatal(err)
	}
	fmt.Printf("servesmoke: -timeseries-out byte-identical at -jobs 1 and -jobs 8 (%d bytes)\n", len(a))
}

// seriesCap is the fleet rings' capacity (telemetry.DefaultSeriesCap).
const seriesCap = 512

// degradedRun injects the compounding slowdown; the windowed rule must fire
// and turn into exit code 1. The run stretches simulated time far past the
// schedule, so its -timeseries-out also pins the sampler's bound: every
// series stays within the ring capacity and, decimated, still covers the
// whole run.
func degradedRun(serve, rulesPath, tmp string) {
	tsOut := filepath.Join(tmp, "ts-degraded.json")
	args := append(fleetArgs("400"),
		"-alert-rules", rulesPath, "-timeseries-out", tsOut,
		"-degrade-slot", "0", "-degrade-after", "5", "-degrade-growth", "1.3",
		"nginx")
	cmd := exec.Command(serve, args...)
	out, err := cmd.CombinedOutput()
	ee, isExit := err.(*exec.ExitError)
	if err == nil || !isExit {
		fatal(fmt.Sprintf("degraded run did not fail with an exit code (err %v):\n%s", err, out))
	}
	if code := ee.ExitCode(); code != 1 {
		fatal(fmt.Sprintf("degraded run exited %d, want 1:\n%s", code, out))
	}
	if !strings.Contains(string(out), "FIRING") {
		fatal(fmt.Sprintf("degraded run's alert table shows no FIRING rule:\n%s", out))
	}
	fmt.Println("servesmoke: degraded run fired the windowed alert and exited 1")

	body, err := os.ReadFile(tsOut)
	if err != nil {
		fatal(err)
	}
	snap, err := decodeSeries(body) // also checks every series is time-ordered
	if err != nil {
		fatal(err)
	}
	if len(snap.Series) == 0 {
		fatal("degraded run wrote no time series")
	}
	for _, sd := range snap.Series {
		pts := sd.Points
		switch {
		case len(pts) == 0:
			fatal(fmt.Sprintf("degraded run: series %s is empty", sd.Name))
		case len(pts) > seriesCap:
			fatal(fmt.Sprintf("degraded run: series %s holds %d points, more than %d", sd.Name, len(pts), seriesCap))
		case pts[0][0] >= 0.02*snap.Now:
			fatal(fmt.Sprintf("degraded run: series %s starts at t=%g, not within the first 2%% of %g", sd.Name, pts[0][0], snap.Now))
		case pts[len(pts)-1][0] != snap.Now:
			fatal(fmt.Sprintf("degraded run: series %s ends at t=%g, not at the run's end %g", sd.Name, pts[len(pts)-1][0], snap.Now))
		}
	}
	fmt.Printf("servesmoke: degraded -timeseries-out: %d series within %d points each, covering [0, %.3gs]\n", len(snap.Series), seriesCap, snap.Now)
}
