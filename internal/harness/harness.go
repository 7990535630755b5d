// Package harness is the ops bundle the cmd/ binaries share. It binds the
// shared telemetry, forensics, engine-policy and baseline flags on a
// FlagSet, opens everything those flags ask for in one Open, and tears it
// all down in one Close that every exit path takes — normal exit, partial
// failure, hard error and failed setup — so -metrics-out and a Chrome
// -trace are always complete documents.
//
// It lives outside internal/telemetry because it composes exec, incident
// and perf, and exec already imports telemetry.
package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"r2c/internal/exec"
	"r2c/internal/incident"
	"r2c/internal/perf"
	"r2c/internal/telemetry"
)

// defaultJournal is where -resume looks when -journal is not given.
const defaultJournal = "r2c-run.journal"

// Flags holds the values of the shared ops flags. A binary binds only the
// groups it exposes; the fields of an unbound group keep their zero values,
// which switch the matching machinery off.
type Flags struct {
	// Sinks group (BindSinks, BindListen).
	MetricsOut, TraceOut, TraceFormat, Listen string
	// Profile group (BindProfile).
	Profile bool
	Top     int
	// Forensics group (BindForensics, BindSampleEvery).
	FlightCap     int
	IncidentsOut  string
	AlertRules    string
	SampleEvery   int
	TimeseriesOut string
	// Engine-policy group (BindEngine).
	CellTimeout  time.Duration
	CellFuel     uint64
	Retries      int
	RetryBackoff time.Duration
	Journal      string
	Resume       bool
	Faults       string
	// Baseline group (BindBaseline, AdoptBaseline).
	BaselineOut  string
	Compare      string
	CompareWarn  bool
	PerfNoise    float64
	PerfNoiseDet float64

	// params are the run parameters a -baseline records and a -compare
	// adopts; base is the loaded -compare baseline.
	params map[string]*int
	base   *perf.Baseline
}

// BindSinks binds -metrics-out, -trace and -trace-format.
func (f *Flags) BindSinks(fs *flag.FlagSet) {
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to `FILE` on exit")
	fs.StringVar(&f.TraceOut, "trace", "", "write structured events and pipeline spans to `FILE`")
	fs.StringVar(&f.TraceFormat, "trace-format", telemetry.TraceJSONL, "trace file `FORMAT`: jsonl or chrome (chrome://tracing / Perfetto)")
}

// BindListen binds -listen, the rest of the sinks group for the binaries
// that run long enough to be scraped.
func (f *Flags) BindListen(fs *flag.FlagSet) {
	fs.StringVar(&f.Listen, "listen", "", "serve the live ops endpoint (/metrics, /healthz, /progress, /incidents, /alerts, /timeseries, /dashboard, /debug/pprof) on `ADDR`, e.g. :8642")
}

// BindProfile binds -profile and -top.
func (f *Flags) BindProfile(fs *flag.FlagSet) {
	fs.BoolVar(&f.Profile, "profile", false, "collect per-function simulated-cycle profiles and print the hot-function table")
	fs.IntVar(&f.Top, "top", 15, "rows in the -profile hot-function table")
}

// BindForensics binds -flight, -incidents-out, -alert-rules and
// -timeseries-out.
func (f *Flags) BindForensics(fs *flag.FlagSet) {
	fs.IntVar(&f.FlightCap, "flight", 0, "per-process flight-recorder depth in `N` events (0 = off); recent control flow is attached to every incident record")
	fs.StringVar(&f.IncidentsOut, "incidents-out", "", "write the incident timeline (trap/fault/hang/divergence records with flight snapshots) as JSON to `FILE` on exit")
	fs.StringVar(&f.AlertRules, "alert-rules", "", "evaluate the declarative alert rules in `FILE` at exit (and live on /alerts); windowed functions read the sampled time series; any firing rule fails the run")
	fs.StringVar(&f.TimeseriesOut, "timeseries-out", "", "write the sampled time-series rings as JSON to `FILE` on exit (byte-identical at any -jobs width)")
}

// BindSampleEvery binds the exec engine's -sample-every stride, for the
// binaries whose rings the engine samples.
func (f *Flags) BindSampleEvery(fs *flag.FlagSet) {
	fs.IntVar(&f.SampleEvery, "sample-every", 0, "time-series sampling stride in `N` completed simulation cells (0 = every 16); samples feed /timeseries, -timeseries-out and windowed alert rules")
}

// BindEngine binds the exec engine's fault-tolerance policy.
func (f *Flags) BindEngine(fs *flag.FlagSet) {
	fs.DurationVar(&f.CellTimeout, "cell-timeout", 0, "per-cell wall-clock watchdog deadline (0 = none); hung cells fail instead of hanging the run")
	fs.Uint64Var(&f.CellFuel, "cell-fuel", 0, "per-cell VM instruction allowance (0 = the default budget); runaway cells fail instead of hanging")
	fs.IntVar(&f.Retries, "retries", 0, "re-attempts per failed cell, each with a seed derived from the cell's content key")
	fs.DurationVar(&f.RetryBackoff, "retry-backoff", 0, "base delay before the first retry of a cell, doubling per attempt")
	fs.StringVar(&f.Journal, "journal", "", "persist completed cell results to `FILE` (JSONL, keyed by build key + machine)")
	fs.BoolVar(&f.Resume, "resume", false, "replay cells already present in the journal instead of re-executing them (implies -journal "+defaultJournal+" unless set)")
	fs.StringVar(&f.Faults, "faults", "", "fault-injection `PLAN` CELL[@ATTEMPT]:KIND,... with KIND one of build-fail, exec-fail, panic, stall, slow[=DURATION]; CELL may be * (testing aid)")
}

// BindBaseline binds -baseline, -compare and the -compare thresholds.
func (f *Flags) BindBaseline(fs *flag.FlagSet) {
	fs.StringVar(&f.BaselineOut, "baseline", "", "write the run's performance numbers as a baseline to `FILE` (BENCH_<experiment>.json)")
	fs.StringVar(&f.Compare, "compare", "", "re-run the baseline in `FILE` (adopting its recorded parameters unless overridden) and exit nonzero on regression")
	fs.BoolVar(&f.CompareWarn, "compare-warn", false, "report -compare timing regressions without failing (CI warn-only mode)")
	fs.Float64Var(&f.PerfNoise, "perf-noise", 0, "-compare timing noise threshold in percent (0 = default 100)")
	fs.Float64Var(&f.PerfNoiseDet, "perf-noise-det", 0, "-compare deterministic drift threshold in percent (0 = default 1)")
}

// AdoptBaseline loads the -compare baseline, if one was named, and sets
// each of params from the value the baseline recorded unless that flag was
// given on fs. The same params are what a -baseline file records. Call it
// after fs.Parse; it returns the loaded baseline (nil without -compare).
func (f *Flags) AdoptBaseline(fs *flag.FlagSet, params map[string]*int) (*perf.Baseline, error) {
	f.params = params
	if f.Compare == "" {
		return nil, nil
	}
	base, err := perf.Load(f.Compare)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	for name, dst := range params {
		if v, ok := base.Params[name]; ok && !set[name] {
			if n, err := strconv.Atoi(v); err == nil {
				*dst = n
			}
		}
	}
	f.base = base
	return base, nil
}

// Usage returns a usage function for fs: a synopsis generated from the
// bound flags followed by args (the positional arguments), then any extra
// lines, then the flag defaults.
func Usage(fs *flag.FlagSet, args string, extra ...string) func() {
	return func() {
		var b strings.Builder
		fmt.Fprintf(&b, "usage: %s", fs.Name())
		fs.VisitAll(func(fl *flag.Flag) {
			if name, _ := flag.UnquoteUsage(fl); name != "" {
				fmt.Fprintf(&b, " [-%s %s]", fl.Name, name)
			} else {
				fmt.Fprintf(&b, " [-%s]", fl.Name)
			}
		})
		fmt.Fprintf(&b, " %s\n", args)
		for _, l := range extra {
			b.WriteString(l + "\n")
		}
		fmt.Fprint(fs.Output(), b.String())
		fs.PrintDefaults()
	}
}

// Config is what differs between the binaries Open serves.
type Config struct {
	// Tool names the binary in diagnostics ("r2cbench").
	Tool string
	// Jobs is the engine's width (-jobs).
	Jobs int
	// Label is the experiment a -baseline records.
	Label string
	// Registry forces a metrics registry: the binary's report reads one.
	Registry bool
	// Incidents forces an incident log: the binary reads it itself.
	Incidents bool
	// Sources, when set, builds what the binary serves beside the engine.
	// Open calls it once the engine, incident log and journal exist and
	// before the ops endpoint starts.
	Sources func(*Run) (Sources, error)
}

// Sources are a binary's own ops-endpoint sources.
type Sources struct {
	// Progress backs /progress; nil serves the engine's progress.
	Progress func() any
	// Health backs /healthz; nil keeps the plain liveness probe.
	Health func() string
	// Series are rings the binary samples itself. Nil lets the engine
	// sample into rings of the bundle's own whenever anything reads them.
	Series *telemetry.SeriesSet
}

// Run is one opened invocation: the observer, engine, incident log and
// rings the flags asked for, and the teardown that releases them.
type Run struct {
	Sinks     *telemetry.Sinks
	Obs       *telemetry.Observer
	Eng       *exec.Engine
	Incidents *incident.Log
	Series    *telemetry.SeriesSet
	// Stdout receives the report parts of the teardown (the -compare table
	// and the alert table); Stderr receives diagnostics and the bracketed
	// status notices. Open sets them to os.Stdout and os.Stderr.
	Stdout, Stderr io.Writer

	cfg   Config
	flags *Flags
	rules []telemetry.AlertRule
	prov  perf.Provenance
	start time.Time
	ops   *telemetry.OpsServer
}

// usageError marks an Open error caused by a malformed flag value; Fail
// exits 2 for it, as the binaries do for an unknown experiment name.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Open validates every flag value a user can get wrong — alert rules, fault
// plan, trace format — before it creates any file, then opens the sinks,
// the engine with its incident log and journal, the binary's own sources,
// the rings, and the ops endpoint. The returned Run is never nil: on error
// it holds what was opened, and Fail releases it.
func (f *Flags) Open(cfg Config) (*Run, error) {
	r := &Run{Stdout: os.Stdout, Stderr: os.Stderr, cfg: cfg, flags: f, start: time.Now()}
	if f.AlertRules != "" {
		rules, err := telemetry.LoadAlertRules(f.AlertRules)
		if err != nil {
			return r, usageError{err}
		}
		r.rules = rules
	}
	plan, err := exec.ParseFaultPlan(f.Faults)
	if err != nil {
		return r, usageError{err}
	}

	r.prov = perf.Collect()
	// The ops endpoint serves /metrics from the registry, and baselines and
	// alert rules read one, so they force it even without a file sink.
	sinks, err := telemetry.OpenSinksOpts(telemetry.SinkOptions{
		MetricsOut:     f.MetricsOut,
		TraceOut:       f.TraceOut,
		TraceFormat:    f.TraceFormat,
		Profile:        f.Profile,
		FlightCap:      f.FlightCap,
		EnsureRegistry: cfg.Registry || f.Listen != "" || f.BaselineOut != "" || f.Compare != "" || f.AlertRules != "",
		Meta:           r.prov.Meta(),
	})
	if err != nil {
		return r, err
	}
	r.Sinks, r.Obs = sinks, sinks.Obs

	// One engine for the whole invocation, so repeated builds hit the
	// content-addressed cache; it carries the fault-tolerance policy every
	// cell runs under.
	r.Eng = exec.New(cfg.Jobs, r.Obs)
	r.Eng.CellTimeout = f.CellTimeout
	r.Eng.CellFuel = f.CellFuel
	r.Eng.Retries = f.Retries
	r.Eng.Backoff = f.RetryBackoff
	r.Eng.Faults = plan
	if cfg.Incidents || f.IncidentsOut != "" || f.Listen != "" || f.AlertRules != "" || f.FlightCap > 0 {
		r.Incidents = incident.NewLog()
		r.Eng.Incidents = r.Incidents
	}
	if f.Resume && f.Journal == "" {
		f.Journal = defaultJournal
	}
	if f.Journal != "" {
		j, err := exec.OpenJournal(f.Journal)
		if err != nil {
			return r, err
		}
		if f.Resume && j.Len() > 0 {
			fmt.Fprintf(r.Stderr, "[resuming: %d journaled cells in %s]\n", j.Len(), f.Journal)
		}
		r.Eng.Journal = j
	}

	var src Sources
	if cfg.Sources != nil {
		if src, err = cfg.Sources(r); err != nil {
			return r, err
		}
	}
	r.Series = src.Series
	if r.Series == nil && (f.TimeseriesOut != "" || f.SampleEvery > 0 || f.Listen != "" || f.AlertRules != "") {
		r.Series = telemetry.NewSeriesSet(0, r.Obs)
		r.Eng.Series = r.Series
		r.Eng.SampleEvery = f.SampleEvery
	}
	if src.Progress == nil {
		src.Progress = func() any { return r.Eng.Progress() }
	}

	if f.Listen != "" {
		r.ops, err = telemetry.ServeOpsSources(f.Listen, telemetry.OpsSources{
			Registry:  r.Obs.Reg(),
			Progress:  src.Progress,
			Incidents: func() any { return r.Incidents.Timeline() },
			Alerts:    func() any { return r.evalAlerts() },
			Series:    r.Series,
			Health:    src.Health,
		})
		if err != nil {
			return r, err
		}
		fmt.Fprintf(r.Stderr, "[ops endpoint listening on %s]\n", r.ops.URL())
	}
	return r, nil
}

func (r *Run) evalAlerts() []telemetry.AlertState {
	return telemetry.EvalAlertsSeries(r.rules, r.Obs.Reg().Snapshot(), r.Series.Snapshot(nil, 0), time.Since(r.start))
}

// Close tears the run down and returns the process exit code: code, or 1
// when code is 0 and a teardown step failed or an alert rule fires. The
// order is fixed:
//
//  1. ops server — shut down first, so no scrape races the final snapshot;
//  2. -baseline / -compare;
//  3. -incidents-out;
//  4. -timeseries-out;
//  5. the alert table (stdout);
//  6. journal;
//  7. sinks — the -metrics-out snapshot and the trace document.
//
// A failing step is reported and the remaining steps still run.
func (r *Run) Close(code int) int { return r.teardown(code, true) }

// Fail reports err as "<tool>: err" and tears down a run that did not
// complete: every Close step runs except -baseline / -compare, since a
// partial run must neither be recorded nor judged. It returns the exit
// code: 2 for a malformed flag value Open rejected, 1 otherwise.
func (r *Run) Fail(err error) int {
	fmt.Fprintf(r.Stderr, "%s: %v\n", r.cfg.Tool, err)
	code := 1
	var ue usageError
	if errors.As(err, &ue) {
		code = 2
	}
	return r.teardown(code, false)
}

func (r *Run) teardown(code int, complete bool) int {
	f := r.flags
	fail := func(format string, a ...any) {
		fmt.Fprintf(r.Stderr, "%s: %s\n", r.cfg.Tool, fmt.Sprintf(format, a...))
		if code == 0 {
			code = 1
		}
	}
	if err := r.ops.Close(); err != nil {
		fail("ops shutdown: %v", err)
	}
	if complete && r.Obs != nil && (f.BaselineOut != "" || f.base != nil) {
		params := map[string]string{}
		for name, v := range f.params {
			params[name] = strconv.Itoa(*v)
		}
		fresh := perf.FromSnapshot(r.cfg.Label, r.Obs.Reg().Snapshot(), r.prov, params)
		if f.BaselineOut != "" {
			if err := fresh.Save(f.BaselineOut); err != nil {
				fail("%v", err)
			} else {
				fmt.Fprintf(r.Stderr, "[baseline %q written to %s]\n", r.cfg.Label, f.BaselineOut)
			}
		}
		if f.base != nil {
			rep := perf.Judge(f.base, fresh, perf.Thresholds{
				DeterministicPct: f.PerfNoiseDet,
				TimingPct:        f.PerfNoise,
				TimingAdvisory:   f.CompareWarn,
			})
			rep.WriteTable(r.Stdout)
			if rep.Failed() {
				fail("performance regressed vs %s", f.Compare)
			}
		}
	}
	if f.IncidentsOut != "" && r.Incidents != nil {
		if err := writeFile(f.IncidentsOut, r.Incidents.WriteJSON); err != nil {
			fail("incidents: %v", err)
		} else {
			fmt.Fprintf(r.Stderr, "[%d incident records written to %s]\n", r.Incidents.Len(), f.IncidentsOut)
		}
	}
	if f.TimeseriesOut != "" && r.Series != nil {
		if err := writeFile(f.TimeseriesOut, r.Series.WriteJSON); err != nil {
			fail("timeseries: %v", err)
		} else {
			fmt.Fprintf(r.Stderr, "[time-series rings written to %s]\n", f.TimeseriesOut)
		}
	}
	if len(r.rules) > 0 && r.Obs != nil {
		states := r.evalAlerts()
		telemetry.WriteAlertTable(r.Stdout, states)
		if n := telemetry.FiringCount(states); n > 0 {
			fail("%d alert rule(s) firing", n)
		}
	}
	if r.Eng != nil {
		if err := r.Eng.Journal.Close(); err != nil {
			fail("%v", err)
		}
	}
	if r.Sinks != nil {
		if err := r.Sinks.Close(); err != nil {
			fail("%v", err)
		}
	}
	return code
}

// writeFile creates path and fills it with write, reporting the first of
// the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
