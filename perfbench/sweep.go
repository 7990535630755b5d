package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"

	"r2c/internal/bench"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/sim"
	"r2c/internal/stats"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// sweepSize is the Figure 6 plan's size: SPEC-like programs at a scale
// divisor, on the first Machines machine profiles.
type sweepSize struct {
	scale, programs, machines int
}

// sweepWorkload is the Figure 6 sweep as `r2cbench -scale 8 -runs 1
// figure6` runs it: every program under `off` and `r2c-full` on every
// machine profile, one run each, fanned through exec.Engine with its build
// cache.
type sweepWorkload struct {
	size sweepSize
	// ref overrides the reference rows (tests corrupt it on purpose).
	ref rows
}

// Figure 6's seed schedule: baselines build from seed base 17, configured
// runs from 31 (bench.MeasureOverheads). Another workload seed shifts both.
const sweepSeedStride = 7919

type sweepRunner struct {
	cfg      *config
	size     sweepSize
	progs    []string
	machines []*vm.Profile
	// cells are in plan order: per machine, every program undefended,
	// then every program under r2c-full.
	cells []exec.Cell
	ref   rows
}

func (w *sweepWorkload) setup(cfg *config) (runner, error) {
	specs := workload.SPEC()[:w.size.programs]
	machines := vm.AllMachines()[:w.size.machines]
	shift := (cfg.seed - defaultSeed) * sweepSeedStride
	r := &sweepRunner{cfg: cfg, size: w.size, machines: machines, ref: w.ref}
	mods := make([]*tir.Module, len(specs))
	for i, b := range specs {
		mods[i] = b.Build(w.size.scale)
		r.progs = append(r.progs, b.Name)
	}
	for _, prof := range machines {
		for _, defended := range []bool{false, true} {
			dcfg, base := defense.Off(), uint64(17)
			if defended {
				dcfg, base = defense.R2CFull(), 31
			}
			for _, m := range mods {
				r.cells = append(r.cells, exec.Cell{Module: m, Cfg: dcfg, Seed: base + shift, Prof: prof})
			}
		}
	}
	return r, nil
}

func (r *sweepRunner) loadReference() error {
	if r.ref != nil || r.cfg.seed != defaultSeed || r.cfg.capture || r.size != defaultSizes().sweep {
		return nil
	}
	var err error
	r.ref, err = committedRows(filepath.Join(r.cfg.root, figure6Baseline), nil)
	return err
}

func (r *sweepRunner) reference() rows { return r.ref }

// pass runs the plan through a fresh engine, so every pass pays the same
// 24 builds, exactly as one r2cbench invocation does. The cells go to
// RunCells one at a time, in plan order — what one call with the whole
// plan does on a one-worker engine — so the meter can sample the host's
// speed between them.
func (r *sweepRunner) pass(m *meter) (passStats, error) {
	eng := exec.New(workers, nil)
	results := make([]*vm.Result, len(r.cells))
	failed := make([]bool, len(r.cells))
	var problems []string
	for i := range r.cells {
		var res []*vm.Result
		err := m.unit(func() error {
			var err error
			res, err = eng.RunCells(context.Background(), r.cells[i:i+1])
			return err
		})
		if err != nil {
			be, ok := exec.AsBatchError(err)
			if !ok {
				return passStats{}, err
			}
			for _, f := range be.Failures {
				failed[i] = true
				problems = append(problems, f.Error())
			}
		}
		if len(res) == 1 {
			results[i] = res[0]
		}
	}
	problems = append(problems, r.check(results, failed)...)
	return passStats{ops: len(r.cells), failed: count(failed), problems: problems}, nil
}

// check derives the Figure 6 rows from the results, gates them against the
// reference (the committed baseline at the default seed, otherwise the
// first pass's rows) and marks the cells behind every mismatched row as
// failed. A defended run whose program output differs from the undefended
// run's fails both cells, at any seed.
func (r *sweepRunner) check(results []*vm.Result, failed []bool) []string {
	var problems []string
	got := rows{}
	cellsOf := map[string][]int{}
	cyc := telemetry.NewLogHist(telemetry.CycleScheme)
	var instr, calls uint64
	n := len(r.progs)
	for mi, prof := range r.machines {
		ov := bench.Overheads{ByBench: map[string]float64{}}
		geomean := telemetry.Key("bench.figure6.geomean_pct", "machine", prof.Name)
		for i := mi * 2 * n; i < (mi+1)*2*n; i++ {
			cellsOf[geomean] = append(cellsOf[geomean], i)
		}
		for pi, prog := range r.progs {
			off, def := mi*2*n+pi, mi*2*n+n+pi
			k := telemetry.Key("bench.figure6.overhead_pct", "machine", prof.Name, "benchmark", prog)
			cellsOf[k] = []int{off, def}
			if results[off] == nil || results[def] == nil {
				continue
			}
			if !slices.Equal(results[off].Output, results[def].Output) {
				problems = append(problems, fmt.Sprintf("%s on %s: r2c-full output differs from the undefended output", prog, prof.Name))
				failed[off], failed[def] = true, true
			}
			ratio, err := stats.OverheadErr(results[def].Cycles, results[off].Cycles)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s on %s: %v", prog, prof.Name, err))
				failed[off], failed[def] = true, true
				continue
			}
			ov.ByBench[prog] = ratio
			got[k] = stats.Pct(ratio)
		}
		got[geomean] = stats.Pct(ov.Geomean())
	}
	// The engine folds cycles into this histogram in submission order; the
	// committed baseline's sum depends on that order.
	for _, res := range results {
		if res != nil {
			cyc.Observe(res.Cycles)
			instr += res.Instructions
			calls += res.Calls
		}
	}
	snap := cyc.Snapshot()
	got["exec.run.cycles.count"] = float64(snap.Count)
	got["exec.run.cycles.sum"] = snap.Sum
	got["exec.run.cycles.p50"] = snap.Quantile(0.50)
	got["exec.run.cycles.p99"] = snap.Quantile(0.99)
	got["vm.instructions"] = float64(instr)
	got["vm.calls"] = float64(calls)

	if r.ref == nil {
		r.ref = got
		return problems
	}
	mismatches, bad := compare(got, r.ref)
	problems = append(problems, mismatches...)
	for _, k := range bad {
		cells, ok := cellsOf[k]
		if !ok { // an aggregate row: every cell fed it
			for i := range failed {
				failed[i] = true
			}
			continue
		}
		for _, i := range cells {
			failed[i] = true
		}
	}
	return problems
}

// replay runs the plan serially, calling each layer from here: the build
// cache lookup (exec.Cache.Image), on a miss the same build layer by layer,
// process instantiation (sim.NewProcessFromImage) and execution
// (sim.ExecProcess, the VM).
func (r *sweepRunner) replay(tr *tracer) (*layerStats, error) {
	ls := &layerStats{ops: len(r.cells)}
	root := tr.begin("sweep.replay", false)
	cache := exec.NewCache(nil)
	results := make([]*vm.Result, len(r.cells))
	failed := make([]bool, len(r.cells))
	progInstr := make([]uint64, len(r.progs))
	for i, c := range r.cells {
		cell := tr.begin("sweep.cell", false)
		img, hit, err := lookup(tr, cache, c.Module, c.Cfg, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if hit {
			ls.cacheHits++
		} else {
			ls.cacheMisses++
			if err := ls.build(tr, c.Module, c.Cfg, c.Seed, img); err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
		}
		proc, err := ls.instantiate(tr, img, c.Seed, nil)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		p := i % len(r.progs)
		sp := tr.begin("sim.ExecProcess", true)
		sp.SetAttr("prog", r.progs[p])
		res, err := sim.ExecProcess(proc, c.Prof, nil)
		tr.end(sp)
		tr.end(cell)
		if err != nil {
			failed[i] = true
			ls.problems = append(ls.problems, fmt.Sprintf("cell %d: %v", i, err))
			continue
		}
		results[i] = res
		ls.noteVM(res)
		progInstr[p] += res.Instructions
	}
	tr.end(root)
	ls.problems = append(ls.problems, r.check(results, failed)...)
	ls.failed = count(failed)

	spans := tr.recorded()
	ls.fromSpans(spans, "sim.ExecProcess", 1)
	ls.unattributedPct = unattributed(spans["sweep.replay"], flatten(spans))
	progTime := map[string]int64{}
	for _, d := range spans["sim.ExecProcess"] {
		progTime[d.Attrs["prog"].(string)] += d.DurNs
	}
	for p, name := range r.progs {
		ls.addExtra(telemetry.Key("vm.ns_per_instr", "prog", name), float64(progTime[name])/float64(max(progInstr[p], 1)), "ns")
	}
	return ls, nil
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
