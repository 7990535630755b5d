// Command r2cserve runs the self-healing serving fleet: N diversified
// variants of a request handler behind an open-loop load generator, with
// detection-triggered quarantine and live re-diversification — the moving
// target defense R2C's "instant re-randomization" principle promises,
// measured end to end. Attack pressure is scripted (-attack) and the run
// reports steady-state throughput, tail latency (p50/p90/p99) and the
// wall-clock time-to-replace a compromised variant.
//
// All simulated-domain results (throughput, latency quantiles, detections,
// incident records) are deterministic: identical flags produce
// byte-identical -json and -incidents-out output at any -jobs width.
//
// Usage:
//
//	r2cserve [-config NAME] [-variants N] [-mvee N] [-requests N] [-rate RPS]
//	         [-seed N] [-heal rebuild|reroll] [-rebuild-latency SEC]
//	         [-attack overwrite|hijack] [-attack-start N] [-attack-every N]
//	         [-attack-target SYM] [-attack-value V] [-adaptive]
//	         [-slice N] [-max-slices N] [-fuel N] [-jobs N] [-json]
//	         [-require-recover] [-metrics-out FILE] [-trace FILE]
//	         [-trace-format jsonl|chrome] [-flight N] [-incidents-out FILE]
//	         [-listen ADDR] [-alert-rules FILE] [-sample-every SEC]
//	         [-timeseries-out FILE] [-degrade-slot N -degrade-after N -degrade-growth F]
//	         <nginx|apache|victim|FILE.tir>
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/fleet"
	"r2c/internal/incident"
	"r2c/internal/perf"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

func main() {
	cfgName := flag.String("config", "r2c", "defense configuration (baseline, r2c, push, avx, btdp, prolog, layout, oia, ...)")
	variants := flag.Int("variants", 4, "fleet size: number of live diversified variants (≥ 2)")
	mveeN := flag.Int("mvee", 0, "supervise every request across N variants with divergence detection (0 = single-variant serving)")
	requests := flag.Int("requests", 2000, "number of requests the load generator emits")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in simulated req/s (0 = auto-calibrate to ~70% of capacity)")
	seed := flag.Uint64("seed", 1, "base seed; variant i starts with seed+i, replacements draw fresh seeds above")
	heal := flag.String("heal", fleet.HealRebuild, "quarantine response: rebuild (fresh-seed re-diversification) or reroll (BTRA-only re-randomization)")
	rebuildLat := flag.Float64("rebuild-latency", 0, "simulated seconds a quarantined variant stays out of rotation (0 = ~20 service times)")
	atkMode := flag.String("attack", "", "attack pressure: overwrite (corrupt -attack-target) or hijack (victim control-flow hijack); empty = benign run")
	atkStart := flag.Int("attack-start", 100, "first attacked request index")
	atkEvery := flag.Int("attack-every", 50, "attack period: every Nth request from -attack-start is malicious")
	atkTarget := flag.String("attack-target", "page64", "data symbol the overwrite attack corrupts")
	atkValue := flag.Uint64("attack-value", 0xbadc0ffee, "value the overwrite attack writes")
	adaptive := flag.Bool("adaptive", false, "attacker re-leaks the victim's layout after each heal (repeated-disclosure adversary)")
	sliceInstrs := flag.Int("slice", 0, "MVEE lockstep slice size in instructions (0 = default)")
	maxSlices := flag.Int("max-slices", 0, "MVEE slice budget per request — expiry is a liveness divergence (0 = default)")
	fuel := flag.Uint64("fuel", 0, "single-variant per-request instruction allowance — exhaustion quarantines as a hang (0 = default)")
	jobs := flag.Int("jobs", 0, "build parallelism (0 = GOMAXPROCS); simulated-domain output is identical at any width")
	asJSON := flag.Bool("json", false, "emit the machine-readable JSON report instead of the text report")
	requireRecover := flag.Bool("require-recover", false, "exit nonzero unless the run both quarantined and recovered at least one variant (smoke-test gate)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (fleet histograms, counters, headline gauges) to FILE")
	traceOut := flag.String("trace", "", "write structured events and spans to FILE")
	traceFormat := flag.String("trace-format", telemetry.TraceJSONL, "trace file format: jsonl or chrome (chrome://tracing / Perfetto)")
	flightCap := flag.Int("flight", 0, "arm a per-process control-flow flight recorder with N events (0 disables)")
	incidentsOut := flag.String("incidents-out", "", "write the incident timeline (trap/fault/hang/divergence records) as JSON to FILE on exit")
	listen := flag.String("listen", "", "serve the live ops endpoint (/metrics, /progress, /incidents, /timeseries, /dashboard, /healthz) on ADDR, e.g. :8642")
	alertRules := flag.String("alert-rules", "", "evaluate the declarative alert rules in FILE at exit (and live on /alerts); windowed functions read the sampled time series; any firing rule fails the run")
	sampleEvery := flag.Float64("sample-every", 0, "time-series sampling period in simulated seconds (0 = auto ≈ 240 ticks over the expected run, negative disables); at most one tick per request, and a full 512-point ring keeps every other point and doubles its stride, so the rings always cover the whole run; samples feed /timeseries, /dashboard, windowed alerts and -timeseries-out")
	timeseriesOut := flag.String("timeseries-out", "", "write the sampled time-series rings as JSON to FILE on exit (byte-identical at any -jobs width)")
	degradeSlot := flag.Int("degrade-slot", 0, "fault injection: variant slot whose service time degrades (with -degrade-growth)")
	degradeAfter := flag.Int("degrade-after", 0, "fault injection: first request index of the degradation")
	degradeGrowth := flag.Float64("degrade-growth", 0, "fault injection: per-request service-time growth factor > 1 on the degraded slot (0 = off); output stays correct, only timing drifts")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: r2cserve [flags] <nginx|apache|victim|FILE.tir>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg, ok := defense.ByName(*cfgName)
	if !ok {
		fatal(fmt.Errorf("unknown config %q", *cfgName))
	}
	mod, err := resolveModule(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// Alert rules are parsed before any work runs so a malformed file fails
	// fast, like an unknown workload name.
	var rules []telemetry.AlertRule
	if *alertRules != "" {
		rules, err = telemetry.LoadAlertRules(*alertRules)
		if err != nil {
			fmt.Fprintln(os.Stderr, "r2cserve:", err)
			os.Exit(2)
		}
	}
	if *atkMode == fleet.ModeHijack && flag.Arg(0) != "victim" {
		fatal(fmt.Errorf("the hijack attack needs the victim workload (it targets the victim's admin_ptr/secret_key assets)"))
	}

	sinks, err := telemetry.OpenSinksOpts(telemetry.SinkOptions{
		MetricsOut:     *metricsOut,
		TraceOut:       *traceOut,
		TraceFormat:    *traceFormat,
		EnsureRegistry: true, // the report publishes headline gauges
		Meta:           perf.Collect().Meta(),
		FlightCap:      *flightCap,
	})
	if err != nil {
		fatal(err)
	}
	ilog := incident.NewLog()
	eng := exec.New(*jobs, sinks.Obs)
	eng.Incidents = ilog

	fl, err := fleet.New(fleet.Options{
		Module:         mod,
		Cfg:            cfg,
		Prof:           vm.EPYCRome(),
		Variants:       *variants,
		BaseSeed:       *seed,
		Requests:       *requests,
		RateRPS:        *rate,
		MVEE:           *mveeN,
		SliceInstrs:    *sliceInstrs,
		MaxSlices:      *maxSlices,
		RequestFuel:    *fuel,
		Heal:           *heal,
		RebuildLatency: *rebuildLat,
		Attack: fleet.Schedule{
			Start:    *atkStart,
			Every:    *atkEvery,
			Mode:     *atkMode,
			Target:   *atkTarget,
			Value:    *atkValue,
			Adaptive: *adaptive,
		},
		Eng:         eng,
		Obs:         sinks.Obs,
		Incidents:   ilog,
		SampleEvery: *sampleEvery,
		Degrade: fleet.Degrade{
			Slot:   *degradeSlot,
			After:  *degradeAfter,
			Growth: *degradeGrowth,
		},
	})
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	var ops *telemetry.OpsServer
	if *listen != "" {
		ops, err = telemetry.ServeOpsSources(*listen, telemetry.OpsSources{
			Registry:  sinks.Obs.Reg(),
			Progress:  func() any { return fl.Live() },
			Incidents: func() any { return ilog.Timeline() },
			Series:    fl.Series(),
			Health:    fl.Health,
			Alerts: func() any {
				return telemetry.EvalAlertsSeries(rules, sinks.Obs.Reg().Snapshot(), fl.Series().Snapshot(nil, 0), time.Since(start))
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[ops endpoint listening on %s]\n", ops.URL())
	}

	rep, err := fl.Serve(context.Background())
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if *incidentsOut != "" {
		f, ferr := os.Create(*incidentsOut)
		if ferr == nil {
			ferr = ilog.WriteJSON(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "r2cserve: incidents: %v\n", ferr)
			os.Exit(1)
		}
		fmt.Printf("[%d incident records written to %s]\n", ilog.Len(), *incidentsOut)
	}
	if *timeseriesOut != "" {
		f, ferr := os.Create(*timeseriesOut)
		if ferr == nil {
			ferr = fl.Series().WriteJSON(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "r2cserve: timeseries: %v\n", ferr)
			os.Exit(1)
		}
		fmt.Printf("[time-series rings written to %s]\n", *timeseriesOut)
	}
	// Ops server first, so no scrape can race the final metrics snapshot.
	if err := ops.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "r2cserve: ops shutdown: %v\n", err)
	}
	exitCode := 0
	if len(rules) > 0 {
		states := telemetry.EvalAlertsSeries(rules, sinks.Obs.Reg().Snapshot(), fl.Series().Snapshot(nil, 0), time.Since(start))
		telemetry.WriteAlertTable(os.Stdout, states)
		if n := telemetry.FiringCount(states); n > 0 {
			fmt.Fprintf(os.Stderr, "r2cserve: %d alert rule(s) firing\n", n)
			exitCode = 1
		}
	}
	if err := sinks.Close(); err != nil {
		fatal(err)
	}
	if *requireRecover && (rep.Sim.Quarantines == 0 || rep.Sim.Recoveries == 0) {
		fmt.Fprintf(os.Stderr, "r2cserve: require-recover: %d quarantines, %d recoveries — the detect→quarantine→rebuild→resume loop did not close\n",
			rep.Sim.Quarantines, rep.Sim.Recoveries)
		os.Exit(1)
	}
	os.Exit(exitCode)
}

// resolveModule maps the positional argument to a per-request module: the
// fleet's unit of work is one request, so the webserver names resolve to
// their single-request variants rather than the throughput benchmarks.
func resolveModule(name string) (*tir.Module, error) {
	switch name {
	case "nginx":
		return workload.NginxRequest(), nil
	case "apache":
		return workload.ApacheRequest(), nil
	case "victim":
		return attack.Victim(), nil
	}
	if strings.HasSuffix(name, ".tir") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return tir.Parse(string(src))
	}
	return nil, fmt.Errorf("unknown workload %q (nginx, apache, victim, or a .tir file)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "r2cserve:", err)
	os.Exit(1)
}
