package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/rng"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// attackSize is the Table 3 matrix's size: Monte-Carlo trials per
// (defense, attack) cell.
type attackSize struct {
	trials int
}

// attackWorkload is the Table 3 matrix as `r2cattack table3` runs it: six
// defenses × {rop, jitrop, pirop, aocr} × trials independent campaigns,
// each (defense, attack) cell fanned across the engine's pool, with every
// victim and reference build going through the engine's cache
// (attack.UseBuildCache).
type attackWorkload struct {
	size attackSize
	ref  rows
}

var attackNames = []string{"rop", "jitrop", "pirop", "aocr"}

// piropRestarts is the persistent PIROP campaign's restart budget (the 12
// bench.Table3 passes to attack.PIROPPersistentForensic).
const piropRestarts = 12

// table3Trials is the trial count BENCH_table3.json was recorded at.
const table3Trials = 4

// Table 3's victim seeds are 1000·trial + 7 + 31·row; another workload
// seed shifts them all.
const attackSeedStride = 100003

type campaign struct {
	row    int
	cfg    defense.Config
	attack string
	trial  int
	seed   uint64
}

func (c *campaign) key() string {
	return telemetry.Key("attack.outcome", "defense", c.cfg.Name, "attack", c.attack, "trial", strconv.Itoa(c.trial))
}

type attackRunner struct {
	cfg       *config
	trials    int
	campaigns []campaign // in (row, attack, trial) order
	victim    *tir.Module
	// eng is the matrix's engine; set-up fills its build cache with every
	// victim and reference image, so each pass meets the same warm cache.
	eng *exec.Engine
	ref rows
	// refKeep, when set, limits the gate to the rows the reference has
	// (BENCH_table3.json records detection rates only).
	refKeep func(string) bool
}

// restartsKey is the gate row for the PIROP campaigns' total restarts. Only
// the replay, which spells the restart loop out, can count them.
const restartsKey = "attack.pirop.restarts"

// setup lists the campaigns and builds the engine r2cattack builds, then
// warms its build cache the way the matrix's first campaigns would: one
// scenario per distinct victim (defense, seed) compiles and links its
// victim and reference images.
func (w *attackWorkload) setup(cfg *config) (runner, error) {
	r := &attackRunner{cfg: cfg, trials: w.size.trials, ref: w.ref, victim: attack.Victim(), eng: exec.New(workers, nil)}
	shift := (cfg.seed - defaultSeed) * attackSeedStride
	cfgs := append(defense.Baselines(), defense.R2CFull())
	for row, dcfg := range cfgs {
		for _, a := range attackNames {
			for i := 0; i < w.size.trials; i++ {
				seed := uint64(1000*i+7) + uint64(row)*31 + shift
				r.campaigns = append(r.campaigns, campaign{row: row, cfg: dcfg, attack: a, trial: i, seed: seed})
			}
		}
	}
	attack.UseBuildCache(r.eng.Cache)
	defer attack.UseBuildCache(nil)
	for _, c := range r.campaigns {
		if c.attack != attackNames[0] {
			continue
		}
		if _, err := attack.NewScenario(c.cfg, c.seed); err != nil {
			return nil, fmt.Errorf("%s trial %d: %w", c.cfg.Name, c.trial, err)
		}
	}
	return r, nil
}

func (r *attackRunner) loadReference() error {
	if r.ref != nil || r.cfg.seed != defaultSeed || r.cfg.capture {
		return nil
	}
	var err error
	switch r.trials {
	case defaultSizes().attack.trials:
		r.ref, err = capturedRows(r.cfg.root, "attack")
	case table3Trials:
		r.refKeep = func(k string) bool { return strings.HasPrefix(k, "bench.table3.detection_rate") }
		r.ref, err = committedRows(filepath.Join(r.cfg.root, table3Baseline), r.refKeep)
	}
	return err
}

// reference returns the gate rows. Rows captured from passes lack the
// restart total, which a serial replay of the PIROP campaigns adds.
func (r *attackRunner) reference() rows {
	if _, ok := r.ref[restartsKey]; r.ref != nil && !ok && r.refKeep == nil {
		attack.UseBuildCache(r.eng.Cache)
		defer attack.UseBuildCache(nil)
		restarts := 0
		for i := range r.campaigns {
			if c := &r.campaigns[i]; c.attack == "pirop" {
				restarts += runCampaign(c, newTracer(false), nil).scenarios
			}
		}
		r.ref[restartsKey] = float64(restarts)
	}
	return r.ref
}

// mount runs one campaign exactly as bench.Table3 does.
func mount(c *campaign) (attack.Outcome, error) {
	if c.attack == "pirop" { // persistent across worker restarts
		o, _ := attack.PIROPPersistentForensic(c.cfg, c.seed, piropRestarts)
		return o, nil
	}
	s, err := attack.NewScenarioObserved(c.cfg, c.seed, nil)
	if err != nil {
		return attack.Failed, fmt.Errorf("%s/%s trial %d: %w", c.cfg.Name, c.attack, c.trial, err)
	}
	s.Campaign = "table3/" + c.cfg.Name + "/" + c.attack
	s.Trial = c.trial
	switch c.attack {
	case "rop":
		return s.ROP(), nil
	case "jitrop":
		// Worst case of direct and indirect JIT-ROP.
		if o := s.JITROP(); o == attack.Success {
			return o, nil
		}
		return s.IndirectJITROP(), nil
	default:
		return s.AOCR(), nil
	}
}

// pass runs the matrix through the engine r2cattack uses, one (defense,
// attack) cell at a time. Each trial is its own MapTracked call of width
// one — what a cell's call does on a one-worker engine — so that the
// meter can sample the host's speed between trials.
func (r *attackRunner) pass(m *meter) (passStats, error) {
	attack.UseBuildCache(r.eng.Cache)
	defer attack.UseBuildCache(nil)
	outs := make([]outcome, len(r.campaigns))
	for i := range r.campaigns {
		c := &r.campaigns[i]
		err := m.unit(func() error {
			return r.eng.MapTracked(context.Background(), 1, c.cfg.Name+"/"+c.attack, func(int) error {
				outs[i].o, outs[i].err = mount(c)
				return nil
			})
		})
		if err != nil {
			return passStats{}, err
		}
	}
	failed := make([]bool, len(r.campaigns))
	problems := r.check(outs, failed, -1)
	return passStats{ops: len(r.campaigns), failed: count(failed), problems: problems}, nil
}

// outcome is one finished campaign.
type outcome struct {
	o         attack.Outcome
	scenarios int // victims instantiated (counted by the replay only)
	// retired is, per scenario, the instructions its victim machine retired
	// in all, as the machine's own counters report them (when runCampaign
	// is given a registry).
	retired []uint64
	err     error
}

// runCampaign is mount with every scenario and attack method traced. The
// persistent PIROP campaign is attack.PIROPPersistentForensic's restart
// loop spelled out with the same public calls, so that every restart is
// counted and its scenario timed; a test pins its outcomes to the
// program's. With a registry, each finished scenario's machine publishes
// its counters there, from which its retired instructions are read.
func runCampaign(c *campaign, tr *tracer, reg *telemetry.Registry) outcome {
	var out outcome
	retired := func(s *attack.Scenario) {
		if reg == nil {
			return
		}
		n := reg.Counter("vm.instructions")
		before := n.Value()
		s.Mach.PublishMetrics(reg)
		out.retired = append(out.retired, n.Value()-before)
	}
	scenario := func() (*attack.Scenario, error) {
		sp := tr.begin("attack.NewScenario", true)
		s, err := attack.NewScenario(c.cfg, c.seed)
		tr.end(sp)
		out.scenarios++
		if err != nil {
			return nil, fmt.Errorf("%s/%s trial %d: %w", c.cfg.Name, c.attack, c.trial, err)
		}
		s.Campaign = "table3/" + c.cfg.Name + "/" + c.attack
		s.Trial = c.trial
		return s, nil
	}
	method := func(name string, f func() attack.Outcome) attack.Outcome {
		sp := tr.begin(name, true)
		defer tr.end(sp)
		return f()
	}
	if c.attack == "pirop" {
		out.o = attack.Failed
		for k := 0; k < piropRestarts; k++ {
			s, err := scenario()
			if err != nil {
				out.err = err
				return out
			}
			s.Rnd = rng.New(c.seed*1000003 + uint64(k))
			o := method("attack.PIROPAdjust", func() attack.Outcome { return s.PIROPAdjust(k % 16) })
			retired(s)
			if o == attack.Success || o == attack.Detected {
				out.o = o
				return out
			}
			if o == attack.Crashed {
				out.o = attack.Crashed
			}
		}
		return out
	}
	s, err := scenario()
	if err != nil {
		out.err = err
		return out
	}
	switch c.attack {
	case "rop":
		out.o = method("attack.ROP", s.ROP)
	case "jitrop":
		out.o = method("attack.JITROP", s.JITROP)
		if out.o != attack.Success {
			out.o = method("attack.IndirectJITROP", s.IndirectJITROP)
		}
	case "aocr":
		out.o = method("attack.AOCR", s.AOCR)
	}
	retired(s)
	return out
}

// check derives the matrix rows — every campaign's outcome, each defense's
// detection rate and, when restarts is not negative, the PIROP restart
// total — and gates them against the reference (captured at the default
// seed, BENCH_table3.json at 4 trials, otherwise the first rows seen),
// failing the campaigns behind each mismatch.
func (r *attackRunner) check(outs []outcome, failed []bool, restarts int) []string {
	var problems []string
	got := rows{}
	detected := map[string]int{}
	for i, c := range r.campaigns {
		o := outs[i]
		if o.err != nil {
			failed[i] = true
			problems = append(problems, o.err.Error())
			continue
		}
		got[c.key()] = float64(o.o)
		if o.o == attack.Detected {
			detected[c.cfg.Name]++
		}
	}
	perDefense := len(attackNames) * r.trials
	for _, c := range r.campaigns {
		got[telemetry.Key("bench.table3.detection_rate", "defense", c.cfg.Name)] = float64(detected[c.cfg.Name]) / float64(perDefense)
	}

	if r.ref == nil {
		r.ref = got
	}
	want := r.ref
	switch _, has := want[restartsKey]; {
	case restarts >= 0 && !has && r.refKeep == nil:
		want[restartsKey] = float64(restarts)
		fallthrough
	case restarts >= 0:
		got[restartsKey] = float64(restarts)
	case has:
		want = copyRows(want)
		delete(want, restartsKey)
	}
	if r.refKeep != nil {
		for k := range got {
			if !r.refKeep(k) {
				delete(got, k)
			}
		}
	}
	mismatches, bad := compare(got, want)
	problems = append(problems, mismatches...)
	for _, k := range bad {
		name, labels := telemetry.ParseKey(k)
		for i, c := range r.campaigns {
			switch {
			case name == "attack.outcome" && k != c.key():
			case name == "bench.table3.detection_rate" && labels["defense"] != c.cfg.Name:
			case name == restartsKey && c.attack != "pirop":
			default:
				failed[i] = true
			}
		}
	}
	return problems
}

func copyRows(r rows) rows {
	c := make(rows, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// replay runs the matrix serially on the warm engine with every scenario
// and attack method timed, then replays the victim traffic of every
// scenario the campaigns created, PIROP restarts included, layer by layer:
// the build cache lookup, instantiation, and the VM runs of the scenario's
// pause loop — slices of 4001–5777 instructions until the victim blocks in
// its helper — followed by one resume for as many instructions as the
// scenario's machine retired in all. The replayed resume runs the clean
// victim, where the attack resumes a corrupted one, perhaps more than once.
// Each distinct victim build is also replayed layer by layer.
func (r *attackRunner) replay(tr *tracer) (*layerStats, error) {
	ls := &layerStats{ops: len(r.campaigns)}
	root := tr.begin("attack.replay", false)
	attack.UseBuildCache(r.eng.Cache)
	defer attack.UseBuildCache(nil)
	hits0, misses0, _ := r.eng.Cache.Stats()
	outs := make([]outcome, len(r.campaigns))
	restarts := 0
	reg := telemetry.NewRegistry()
	for i := range r.campaigns {
		sp := tr.begin("attack.campaign", false)
		outs[i] = runCampaign(&r.campaigns[i], tr, reg)
		tr.end(sp)
		if r.campaigns[i].attack == "pirop" {
			restarts += outs[i].scenarios
		}
	}
	hits, misses, _ := r.eng.Cache.Stats()
	ls.cacheHits, ls.cacheMisses = hits-hits0, misses-misses0

	failed := make([]bool, len(r.campaigns))
	built := map[[2]uint64]bool{}
	prof := vm.EPYCRome()
	for i, c := range r.campaigns {
		for _, n := range outs[i].retired {
			ok, err := r.victimRun(tr, ls, &c, n, built, prof)
			if err != nil {
				return nil, err
			}
			failed[i] = failed[i] || !ok
		}
	}
	tr.end(root)
	ls.problems = append(ls.problems, r.check(outs, failed, restarts)...)
	ls.failed = count(failed)

	spans := tr.recorded()
	ls.fromSpans(spans, "vm.Machine.Run", 1)
	ls.unattributedPct = unattributed(spans["attack.replay"], flatten(spans))
	ls.addExtra("attack.scenario_ms", float64(total(spans["attack.NewScenario"]).Nanoseconds())/1e6/float64(max(len(spans["attack.NewScenario"]), 1)), "ms")
	ls.addExtra("attack.campaign_ms", float64(total(spans["attack.campaign"]).Nanoseconds())/1e6/float64(len(r.campaigns)), "ms")
	ls.addExtra("attack.restarts", float64(restarts), "count")
	return ls, nil
}

// victimRun replays one scenario's victim: it loads the process from the
// build cache, pauses it inside attack.SymHelper the way
// attack.NewScenario does, and resumes it until it has retired the given
// instructions in all. It reports false, after noting a problem, when the
// victim did not pause or stopped on a trap or fault.
func (r *attackRunner) victimRun(tr *tracer, ls *layerStats, c *campaign, retired uint64, built map[[2]uint64]bool, prof *vm.Profile) (bool, error) {
	group := tr.begin("attack.victim", false)
	defer tr.end(group)
	img, _, err := lookup(tr, r.eng.Cache, r.victim, c.cfg, c.seed)
	if err != nil {
		return false, err
	}
	if k := [2]uint64{uint64(c.row), c.seed}; !built[k] {
		built[k] = true
		if err := ls.build(tr, r.victim, c.cfg, c.seed, img); err != nil {
			return false, err
		}
	}
	proc, err := ls.instantiate(tr, img, c.seed, nil)
	if err != nil {
		return false, err
	}
	mach := vm.New(proc, prof)
	helper := proc.Img.Funcs[attack.SymHelper]
	paused := false
	var res *vm.Result
	// The slice budgets are attack.NewScenario's: 4001 + (step·613 mod 1777).
	for step := 0; step < 2048 && !paused; step++ {
		sp := tr.begin("vm.Machine.Run", true)
		res, err = mach.Run(uint64(4001 + (step*613)%1777))
		tr.end(sp)
		if !errors.Is(err, vm.ErrInstructionBudget) {
			break
		}
		paused = mach.CPU.PC >= helper.Start && mach.CPU.PC < helper.End
	}
	if !paused {
		ls.problems = append(ls.problems, fmt.Sprintf("victim %s seed %d did not pause in %s: %v", c.cfg.Name, c.seed, attack.SymHelper, err))
		return false, nil
	}
	if retired > res.Instructions {
		sp := tr.begin("vm.Machine.Run", true)
		res, err = mach.Run(retired - res.Instructions)
		tr.end(sp)
	}
	if (err != nil && !errors.Is(err, vm.ErrInstructionBudget)) || res.Trap != nil || res.Fault != nil {
		ls.problems = append(ls.problems, fmt.Sprintf("victim %s seed %d did not run cleanly: %v", c.cfg.Name, c.seed, err))
		return false, nil
	}
	ls.noteVM(res)
	return true, nil
}
