package main

import (
	"context"
	"fmt"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/fleet"
	"r2c/internal/image"
	"r2c/internal/incident"
	"r2c/internal/mvee"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// serveSize is the fleet run's request count and the request from which
// the degraded variant starts slowing down.
type serveSize struct {
	requests, degradeAfter int
}

// serveWorkload is the fleet as `r2cserve -mvee 3 -attack overwrite
// -degrade-slot 0 -degrade-after 5 -degrade-growth 1.3 nginx` runs it:
// four r2c variants of the single-request nginx handler, every request
// supervised across three of them, an overwrite attack from request 100
// every 50 (each detection quarantines and rebuilds a variant), and one
// variant whose service time degrades — with r2cserve's default
// telemetry: a metrics registry, an incident log and the sim-time sampler
// at its default cadence.
type serveWorkload struct {
	size serveSize
	ref  rows
}

type serveRunner struct {
	cfg  *config
	size serveSize
	opts fleet.Options
	ref  rows
}

func (w *serveWorkload) setup(cfg *config) (runner, error) {
	dcfg, ok := defense.ByName("r2c")
	if !ok {
		return nil, fmt.Errorf("no r2c defense configuration")
	}
	r := &serveRunner{cfg: cfg, size: w.size, ref: w.ref, opts: fleet.Options{
		Module:   workload.NginxRequest(),
		Cfg:      dcfg,
		Prof:     vm.EPYCRome(),
		Variants: 4,
		BaseSeed: cfg.seed,
		Requests: w.size.requests,
		MVEE:     3,
		Heal:     fleet.HealRebuild,
		Attack: fleet.Schedule{
			Start: 100, Every: 50,
			Mode: fleet.ModeOverwrite, Target: "page64", Value: 0xbadc0ffee,
		},
		Degrade: fleet.Degrade{Slot: 0, After: w.size.degradeAfter, Growth: 1.3},
	}}
	// Validate the options the way every pass will use them.
	if _, _, err := r.newFleet(r.opts); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *serveRunner) loadReference() error {
	if r.ref != nil || r.cfg.seed != defaultSeed || r.cfg.capture || r.size != defaultSizes().serve {
		return nil
	}
	var err error
	r.ref, err = capturedRows(r.cfg.root, "serve")
	return err
}

// newFleet wires a fleet the way r2cserve does: a fresh engine sharing the
// run's registry-backed observer and incident log.
func (r *serveRunner) newFleet(o fleet.Options) (*fleet.Fleet, *exec.Engine, error) {
	o.Obs = &telemetry.Observer{Registry: telemetry.NewRegistry()}
	o.Incidents = incident.NewLog()
	o.Eng = exec.New(workers, o.Obs)
	o.Eng.Incidents = o.Incidents
	fl, err := fleet.New(o)
	return fl, o.Eng, err
}

func (r *serveRunner) reference() rows { return r.ref }

// pass serves the schedule once on a fresh fleet; the fleet's wiring and
// its Serve call are the meter's one long unit.
func (r *serveRunner) pass(m *meter) (passStats, error) {
	var rep *fleet.Report
	err := m.during(func() error {
		fl, _, err := r.newFleet(r.opts)
		if err != nil {
			return err
		}
		rep, err = fl.Serve(context.Background())
		return err
	})
	if err != nil {
		return passStats{}, err
	}
	ps := passStats{ops: r.opts.Requests, problems: r.check(rep)}
	if len(ps.problems) > 0 {
		ps.failed = ps.ops // the report is one outcome: no request can be singled out
	}
	return ps, nil
}

// check gates the fleet's simulated-domain report: the invariants any seed
// must keep (no attack slips past the supervisor, every heal succeeds),
// then the reference rows (captured at the default seed, otherwise the
// first pass's).
func (r *serveRunner) check(rep *fleet.Report) []string {
	s := &rep.Sim
	var problems []string
	if s.SilentCorruptions != 0 || s.AttackerWins != 0 {
		problems = append(problems, fmt.Sprintf("%d silent corruptions and %d attacker wins slipped past the supervisor", s.SilentCorruptions, s.AttackerWins))
	}
	if s.HealFailures != 0 || s.Quarantines == 0 {
		problems = append(problems, fmt.Sprintf("%d quarantines, %d heal failures: the detect-quarantine-rebuild loop did not close", s.Quarantines, s.HealFailures))
	}
	got := rows{
		"fleet.throughput_rps":      s.ThroughputRPS,
		"fleet.rate_rps":            s.RateRPS,
		"fleet.makespan_s":          s.MakespanSeconds,
		"fleet.latency_mean_s":      s.LatencyMean,
		"fleet.latency_p50_s":       s.LatencyP50,
		"fleet.latency_p90_s":       s.LatencyP90,
		"fleet.latency_p99_s":       s.LatencyP99,
		"fleet.attack_requests":     float64(s.AttackRequests),
		"fleet.quarantines":         float64(s.Quarantines),
		"fleet.recoveries":          float64(s.Recoveries),
		"fleet.silent_corruptions":  float64(s.SilentCorruptions),
		"fleet.attacker_wins":       float64(s.AttackerWins),
		"fleet.drift_warnings":      float64(s.DriftWarnings),
		"fleet.injections_accepted": float64(s.InjectionsAccepted),
	}
	for kind, n := range s.Detections {
		got[telemetry.Key("fleet.detections", "kind", kind)] = float64(n)
	}
	if r.ref == nil {
		r.ref = got
		return problems
	}
	mismatches, _ := compare(got, r.ref)
	return append(problems, mismatches...)
}

// replay serves the schedule once with the fleet timed as a whole, once
// more with the sampler disarmed (its price), and then replays every
// request's calls on the fleet's initial images: three
// sim.NewProcessFromImage, with an observer of the kind the fleet passes
// them, and one mvee.Engine.Run. What the replayed calls do not explain of
// the fleet's wall time — the serve loop, drift detection, sampling, heals
// — is reported as the unattributed residual.
func (r *serveRunner) replay(tr *tracer) (*layerStats, error) {
	ls := &layerStats{ops: r.opts.Requests}
	fl, eng, err := r.newFleet(r.opts)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("fleet.Serve", false)
	rep, err := fl.Serve(context.Background())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ls.problems = r.check(rep)
	if len(ls.problems) > 0 {
		ls.failed = ls.ops
	}
	snap := fl.Series().Snapshot(nil, 0)
	samples := 0
	for _, sd := range snap.Series {
		samples += len(sd.Points) + int(sd.Dropped)
	}
	ls.cacheHits, ls.cacheMisses, _ = eng.Cache.Stats()

	disarmed := r.opts
	disarmed.SampleEvery = -1
	dfl, _, err := r.newFleet(disarmed)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("fleet.Serve.disarmed", false)
	if _, err := dfl.Serve(context.Background()); err != nil {
		return nil, err
	}
	tr.end(sp)

	// The request replay, on the initial variants, through a fresh engine's
	// cache and build layers.
	o := r.opts
	cache := exec.NewCache(nil)
	imgs := make([]*image.Image, o.Variants)
	for v := range imgs {
		seed := o.BaseSeed + uint64(v)
		img, _, err := cache.Image(o.Module, o.Cfg, seed)
		if err != nil {
			return nil, err
		}
		if _, _, err := lookup(tr, cache, o.Module, o.Cfg, seed); err != nil {
			return nil, err
		}
		imgs[v] = img
	}
	// Every build the fleet made: the initial variants, then one fresh seed
	// per rebuild, drawn upwards from BaseSeed+Variants.
	for k := 0; k < o.Variants+rep.Wall.Rebuilds; k++ {
		seed := o.BaseSeed + uint64(k)
		var cached *image.Image
		if k < o.Variants {
			cached = imgs[k]
		}
		if err := ls.build(tr, o.Module, o.Cfg, seed, cached); err != nil {
			return nil, err
		}
	}
	obs := &telemetry.Observer{Registry: telemetry.NewRegistry()}
	diverged := 0
	width := o.MVEE
	for i := 0; i < o.Requests; i++ {
		req := tr.begin("fleet.request", false)
		me := &mvee.Engine{Trial: i}
		for j := 0; j < width; j++ {
			v := (i + j) % o.Variants
			proc, err := ls.instantiate(tr, imgs[v], o.BaseSeed+uint64(v), obs)
			if err != nil {
				return nil, err
			}
			me.Variants = append(me.Variants, &mvee.Variant{Seed: o.BaseSeed + uint64(v), Proc: proc, Mach: vm.New(proc, o.Prof)})
		}
		sp := tr.begin("mvee.Engine.Run", true)
		verdict, err := me.Run(100_000, 50) // fleet.New's defaults for SliceInstrs and MaxSlices
		tr.end(sp)
		tr.end(req)
		if err != nil {
			return nil, err
		}
		if verdict.Detected() || len(verdict.Hung) > 0 {
			diverged++
			ls.problems = append(ls.problems, fmt.Sprintf("replayed request %d: benign variants diverged: %s", i, verdict.Reason))
		}
		for _, res := range verdict.Results {
			if res != nil {
				ls.noteVM(res)
			}
		}
	}
	ls.failed = min(ls.ops, ls.failed+diverged)

	spans := tr.recorded()
	ls.fromSpans(spans, "mvee.Engine.Run", width)
	if serve, off := spans["fleet.Serve"], spans["fleet.Serve.disarmed"]; len(serve) == 1 && len(off) == 1 {
		serveWall := float64(serve[0].DurNs)
		attributed := float64(total(spans["sim.NewProcessFromImage"]) + total(spans["mvee.Engine.Run"]))
		ls.unattributedPct = 100 * (serveWall - attributed) / serveWall
		ls.addExtra("telemetry.armed_overhead_pct", 100*(serveWall-float64(off[0].DurNs))/float64(off[0].DurNs), "%")
	}
	supUs := durationsUs(spans["mvee.Engine.Run"])
	ls.addExtra("mvee.supervise_us.p50", quantile(supUs, 0.5), "us")
	ls.addExtra("mvee.supervise_us.p99", quantile(supUs, 0.99), "us")
	ls.addExtra("telemetry.samples", float64(samples), "count")
	ls.addExtra("telemetry.samples_per_request", float64(samples)/float64(o.Requests), "count")
	ls.addExtra("fleet.replace_ms", rep.Wall.ReplaceMeanSeconds*1e3, "ms")
	ls.addExtra("fleet.rebuilds", float64(rep.Wall.Rebuilds), "count")
	return ls, nil
}
