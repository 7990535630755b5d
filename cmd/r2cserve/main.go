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

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/fleet"
	"r2c/internal/harness"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// options are r2cserve's own flags; ops holds the shared ones.
type options struct {
	cfgName, heal, atkMode, atkTarget             string
	variants, mveeN, requests, atkStart, atkEvery int
	sliceInstrs, maxSlices, jobs                  int
	degradeSlot, degradeAfter                     int
	seed, atkValue, fuel                          uint64
	rate, rebuildLat, sampleEvery, degradeGrowth  float64
	adaptive, asJSON, requireRecover              bool
	ops                                           harness.Flags
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("r2cserve", flag.ExitOnError)
	fs.StringVar(&o.cfgName, "config", "r2c", "defense configuration (baseline, r2c, push, avx, btdp, prolog, layout, oia, ...)")
	fs.IntVar(&o.variants, "variants", 4, "fleet size: number of live diversified variants (≥ 2)")
	fs.IntVar(&o.mveeN, "mvee", 0, "supervise every request across N variants with divergence detection (0 = single-variant serving)")
	fs.IntVar(&o.requests, "requests", 2000, "number of requests the load generator emits")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in simulated req/s (0 = auto-calibrate to ~70% of capacity)")
	fs.Uint64Var(&o.seed, "seed", 1, "base seed; variant i starts with seed+i, replacements draw fresh seeds above")
	fs.StringVar(&o.heal, "heal", fleet.HealRebuild, "quarantine response: rebuild (fresh-seed re-diversification) or reroll (BTRA-only re-randomization)")
	fs.Float64Var(&o.rebuildLat, "rebuild-latency", 0, "simulated seconds a quarantined variant stays out of rotation (0 = ~20 service times)")
	fs.StringVar(&o.atkMode, "attack", "", "attack pressure: overwrite (corrupt -attack-target) or hijack (victim control-flow hijack); empty = benign run")
	fs.IntVar(&o.atkStart, "attack-start", 100, "first attacked request index")
	fs.IntVar(&o.atkEvery, "attack-every", 50, "attack period: every Nth request from -attack-start is malicious")
	fs.StringVar(&o.atkTarget, "attack-target", "page64", "data symbol the overwrite attack corrupts")
	fs.Uint64Var(&o.atkValue, "attack-value", 0xbadc0ffee, "value the overwrite attack writes")
	fs.BoolVar(&o.adaptive, "adaptive", false, "attacker re-leaks the victim's layout after each heal (repeated-disclosure adversary)")
	fs.IntVar(&o.sliceInstrs, "slice", 0, "MVEE lockstep slice size in instructions (0 = default)")
	fs.IntVar(&o.maxSlices, "max-slices", 0, "MVEE slice budget per request — expiry is a liveness divergence (0 = default)")
	fs.Uint64Var(&o.fuel, "fuel", 0, "single-variant per-request instruction allowance — exhaustion quarantines as a hang (0 = default)")
	fs.IntVar(&o.jobs, "jobs", 0, "build parallelism (0 = GOMAXPROCS); simulated-domain output is identical at any width")
	fs.BoolVar(&o.asJSON, "json", false, "emit the machine-readable JSON report instead of the text report")
	fs.BoolVar(&o.requireRecover, "require-recover", false, "exit nonzero unless the run both quarantined and recovered at least one variant (smoke-test gate)")
	fs.Float64Var(&o.sampleEvery, "sample-every", 0, "time-series sampling period in simulated seconds (0 = auto ≈ 240 ticks over the expected run, negative disables); at most one tick per request, and a full 512-point ring keeps every other point and doubles its stride, so the rings always cover the whole run; samples feed /timeseries, /dashboard, windowed alerts and -timeseries-out")
	fs.IntVar(&o.degradeSlot, "degrade-slot", 0, "fault injection: variant slot whose service time degrades (with -degrade-growth)")
	fs.IntVar(&o.degradeAfter, "degrade-after", 0, "fault injection: first request index of the degradation")
	fs.Float64Var(&o.degradeGrowth, "degrade-growth", 0, "fault injection: per-request service-time growth factor > 1 on the degraded slot (0 = off); output stays correct, only timing drifts")
	o.ops.BindSinks(fs)
	o.ops.BindListen(fs)
	o.ops.BindForensics(fs)
	fs.Usage = harness.Usage(fs, "<nginx|apache|victim|FILE.tir>")
	return fs, o
}

func main() {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	cfg, ok := defense.ByName(o.cfgName)
	if !ok {
		fatal(fmt.Errorf("unknown config %q", o.cfgName))
	}
	mod, err := resolveModule(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if o.atkMode == fleet.ModeHijack && fs.Arg(0) != "victim" {
		fatal(fmt.Errorf("the hijack attack needs the victim workload (it targets the victim's admin_ptr/secret_key assets)"))
	}

	// The fleet is built inside Open so the ops endpoint serves its live
	// view, health and rings; the report publishes headline gauges, so the
	// registry is forced, and the fleet always records incidents.
	var fl *fleet.Fleet
	run, err := o.ops.Open(harness.Config{
		Tool: "r2cserve", Jobs: o.jobs, Registry: true, Incidents: true,
		Sources: func(r *harness.Run) (harness.Sources, error) {
			var err error
			fl, err = fleet.New(fleet.Options{
				Module:         mod,
				Cfg:            cfg,
				Prof:           vm.EPYCRome(),
				Variants:       o.variants,
				BaseSeed:       o.seed,
				Requests:       o.requests,
				RateRPS:        o.rate,
				MVEE:           o.mveeN,
				SliceInstrs:    o.sliceInstrs,
				MaxSlices:      o.maxSlices,
				RequestFuel:    o.fuel,
				Heal:           o.heal,
				RebuildLatency: o.rebuildLat,
				Attack: fleet.Schedule{
					Start:    o.atkStart,
					Every:    o.atkEvery,
					Mode:     o.atkMode,
					Target:   o.atkTarget,
					Value:    o.atkValue,
					Adaptive: o.adaptive,
				},
				Eng:         r.Eng,
				Obs:         r.Obs,
				Incidents:   r.Incidents,
				SampleEvery: o.sampleEvery,
				Degrade: fleet.Degrade{
					Slot:   o.degradeSlot,
					After:  o.degradeAfter,
					Growth: o.degradeGrowth,
				},
			})
			if err != nil {
				return harness.Sources{}, err
			}
			return harness.Sources{Progress: func() any { return fl.Live() }, Health: fl.Health, Series: fl.Series()}, nil
		},
	})
	if err != nil {
		os.Exit(run.Fail(err))
	}

	rep, err := fl.Serve(context.Background())
	if err != nil {
		os.Exit(run.Fail(err))
	}
	if o.asJSON {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		os.Exit(run.Fail(err))
	}
	exitCode := run.Close(0)
	if o.requireRecover && (rep.Sim.Quarantines == 0 || rep.Sim.Recoveries == 0) {
		fmt.Fprintf(os.Stderr, "r2cserve: require-recover: %d quarantines, %d recoveries — the detect→quarantine→rebuild→resume loop did not close\n",
			rep.Sim.Quarantines, rep.Sim.Recoveries)
		exitCode = 1
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
