// Command perfbench is R2C-Sim's outside-in benchmark. It drives three
// workloads through the same public entry points the CLIs use — the
// Figure 6 sweep (r2cbench figure6), the serving fleet (r2cserve) and the
// Table 3 attack matrix (r2cattack table3) — measures host time and memory
// end to end, checks every modeled output against a reference, and, in a
// separate traced run, times the calls into each layer from this package's
// own code.
//
// Usage (from the repository root):
//
//	go -C perfbench run . --workload sweep|serve|attack --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set; a human-readable report goes to standard error. Seed 1
// reproduces the committed BENCH_figure6.json rows and the references in
// reference.json; any other seed regenerates the inputs and is checked
// against the invariants the modeled outputs must keep.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeed is the seed whose inputs match the committed baselines.
const defaultSeed = 1

// workers is the engine's pool width in the measured passes. On a shared
// two-vCPU host one worker, with the second CPU left to the Go runtime,
// keeps host time steady: two workers halved the sweep's pass time but
// spread its run-to-run wall time by 28% (quartiles over ten runs).
const workers = 1

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the run parameters every workload sees.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	// root is the repository root holding the committed baselines.
	root string
	// log receives the human-readable report.
	log io.Writer
	// capture skips the reference at the default seed, so the first
	// pass's rows become it and can be written out.
	capture bool
}

// passStats is what one untraced pass of a workload reports.
type passStats struct {
	ops    int
	failed int
	// problems describes each correctness-gate failure of the pass.
	problems []string
}

// workloadSpec is one benchmark workload. setup builds everything the
// measured phase needs and returns a runner for it; the runner is called
// once per pass, each pass doing the full workload at its stated size.
type workloadSpec interface {
	// setup builds the workload's inputs for the given seed.
	setup(cfg *config) (runner, error)
}

// runner executes the measured phase of a set-up workload.
type runner interface {
	// pass runs the whole workload once, untraced, and checks its outputs.
	// It runs the workload's units of work through m, which times them
	// and samples the host's speed between them.
	pass(m *meter) (passStats, error)
	// replay runs the workload's layer replay serially: each layer's
	// public function called from this package, recorded into tr (which
	// may be disabled). It returns the per-layer figures the replay
	// gathered; the serve workload also times the fleet itself here.
	replay(tr *tracer) (*layerStats, error)
	// loadReference resolves the rows the passes are gated against: the
	// committed or captured reference at the default seed and size, or
	// else the first pass's rows. It is not part of the timed set-up.
	loadReference() error
	// reference returns the rows the passes are gated against.
	reference() rows
}

func workloads(sz sizes) map[string]workloadSpec {
	return map[string]workloadSpec{
		"sweep":  &sweepWorkload{size: sz.sweep},
		"serve":  &serveWorkload{size: sz.serve},
		"attack": &attackWorkload{size: sz.attack},
	}
}

func main() {
	os.Exit(run(os.Args[1:], defaultSizes(), os.Stdout, os.Stderr))
}

// run is main without the process exit, with the workload sizes as a
// parameter, so tests can drive it at smoke-test sizes.
func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep, serve or attack")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; 1 reproduces the committed baselines")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds (at least one full pass runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	root := fs.String("root", "", "repository root holding BENCH_*.json (default: the nearest directory at or above the working directory that holds one)")
	capture := fs.Bool("write-reference", false, "regenerate this workload's entry of "+referenceFile+" from the first pass (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads(sz)[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want sweep, serve or attack)\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *capture && (*seed != defaultSeed || sz != defaultSizes() || *trace != 0) {
		fmt.Fprintf(stderr, "perfbench: --write-reference captures the default seed at full size, untraced\n")
		return 2
	}
	cfg := &config{workload: *name, seed: *seed, seconds: *seconds, root: *root, log: stderr, capture: *capture}
	if cfg.root == "" {
		var err error
		if cfg.root, err = findRoot(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = measureLayers(w, cfg)
	} else {
		res, err = measureEndToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// findRoot locates the repository root: the nearest directory at or above
// the working directory that holds the committed Figure 6 baseline.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, figure6Baseline)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no " + figure6Baseline + " at or above the working directory; pass --root")
		}
		dir = parent
	}
}

// A run sets its workload up at least minSetups times, and more while the
// set-ups have taken less than minSetupTime in all, up to maxSetups;
// setup_s is the median, so one slow set-up cannot move it, and a set-up
// of a fraction of a millisecond is repeated until its median is steady.
const (
	minSetups    = 25
	maxSetups    = 2000
	minSetupTime = time.Second
)

// measureEndToEnd is the --trace 0 run: repeated set-up, then untraced
// passes until the measured phase has lasted cfg.seconds. Every set-up and
// pass time is scaled to the reference host speed (see meter).
func measureEndToEnd(w workloadSpec, cfg *config) (*result, error) {
	var r runner
	setups := &meter{}
	for len(setups.units) < minSetups || (setups.work < minSetupTime && len(setups.units) < maxSetups) {
		err := setups.unit(func() error {
			var err error
			r, err = w.setup(cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	setups.finish()
	if err := r.loadReference(); err != nil {
		return nil, err
	}
	allocStart := heapAllocBytes()
	phaseStart := time.Now()
	// walls are the passes' scaled times; durs their whole lengths, host
	// samples included, which decide whether another pass fits.
	var walls, raw, factors, durs []float64
	res := &result{}
	opsPerPass := 0
	// Passes run whole: another starts only if a typical pass still fits
	// in the measured phase.
	for len(walls) == 0 || time.Since(phaseStart).Seconds()+median(durs) <= cfg.seconds {
		// Each pass starts from a collected heap returned to the OS, so
		// the peak RSS is one pass's peak, not a function of how many
		// passes fit in the phase.
		debug.FreeOSMemory()
		start := time.Now()
		m := &meter{}
		ps, err := r.pass(m)
		m.finish()
		durs = append(durs, time.Since(start).Seconds())
		walls = append(walls, m.scaled())
		raw = append(raw, m.seconds())
		factors = append(factors, m.hostFactor())
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(walls), err)
		}
		for _, p := range ps.problems {
			fmt.Fprintf(cfg.log, "correctness: pass %d: %s\n", len(walls), p)
		}
		res.Attempted += ps.ops
		res.Failed += ps.failed
		opsPerPass = ps.ops
	}
	alloc := heapAllocBytes() - allocStart
	if cfg.capture {
		if err := writeReference(cfg.root, cfg.workload, r.reference()); err != nil {
			return nil, err
		}
	}
	wall := median(walls)
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"setup_s":          {setups.scaledMedianUnit(), "s"},
		"wall_s":           {wall, "s"},
		"ops_per_s":        {float64(opsPerPass) / wall, "1/s"},
		"peak_rss_mib":     {peakRSSMiB(), "MiB"},
		"alloc_kib_per_op": {float64(alloc) / 1024 / float64(res.Attempted), "KiB"},
	}
	fmt.Fprintf(cfg.log, "set-ups: %d, host slowdown vs reference: %.3f\n", len(setups.units), setups.hostFactor())
	fmt.Fprintf(cfg.log, "passes: %d\n  wall per pass, measured (s):  %s\n  host slowdown vs reference:   %s\n  wall per pass, scaled (s):    %s\n",
		len(walls), fmtFloats(raw), fmtFloats(factors), fmtFloats(walls))
	fmt.Fprintf(cfg.log, "fail_ratio: %d/%d\n", res.Failed, res.Attempted)
	writeMetrics(cfg.log, res.Metrics)
	return res, nil
}

// measureLayers is the --trace 1 run: set-up once, then pairs of serial
// layer replays — one with the tracer disabled, one recording spans —
// until cfg.seconds have passed. The per-layer figures come from the
// traced replays; the untraced ones price the tracing itself.
func measureLayers(w workloadSpec, cfg *config) (*result, error) {
	r, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := r.loadReference(); err != nil {
		return nil, err
	}
	var plainWalls, tracedWalls []float64
	var traced []*layerStats
	var tr *tracer
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds()+median(plainWalls)+median(tracedWalls) <= cfg.seconds {
		t0 := time.Now()
		if _, err := r.replay(newTracer(false)); err != nil {
			return nil, fmt.Errorf("untraced replay: %w", err)
		}
		plainWalls = append(plainWalls, time.Since(t0).Seconds())
		tr = newTracer(true)
		t0 = time.Now()
		ls, err := r.replay(tr)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		traced = append(traced, ls)
	}
	ls := traced[len(traced)-1]
	ls.overheadPct = 100 * (median(tracedWalls) - median(plainWalls)) / median(plainWalls)
	if err := tr.writeFile(traceFile(cfg)); err != nil {
		return nil, err
	}
	res := &result{Correct: ls.failed == 0, Attempted: ls.ops, Failed: ls.failed, Metrics: ls.metrics()}
	for _, p := range ls.problems {
		fmt.Fprintf(cfg.log, "correctness: %s\n", p)
	}
	fmt.Fprintf(cfg.log, "replays: %d, untraced wall (s): %s, traced wall (s): %s\n",
		len(traced), fmtFloats(plainWalls), fmtFloats(tracedWalls))
	writeMetrics(cfg.log, res.Metrics)
	if len(ls.extra) > 0 {
		fmt.Fprintf(cfg.log, "workload-specific layer metrics:\n")
		writeMetrics(cfg.log, ls.extra)
	}
	return res, nil
}

// traceFile is where a traced run leaves its spans: under the checkout's
// build directory, which the repository ignores.
func traceFile(cfg *config) string {
	return filepath.Join(cfg.root, ".bench_build", "perfbench-trace-"+cfg.workload+".json")
}

func writeMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
