// Command r2caudit is the variant diversity auditor: it builds N
// re-diversified images of one workload under one defense configuration and
// reports how random the randomization actually is — placement-order
// entropy, the distributions of every randomized code-generation choice
// (BTRA pre/post offsets, NOP runs, global padding, BTDP placement,
// register allocation), and the pairwise survivor surface: addresses,
// gadget-like instruction windows and data words an address-oblivious
// attacker could carry unchanged from one variant to another.
//
// The report is deterministic: identical inputs produce byte-identical
// output at any -jobs width, so reports can be diffed across toolchain
// versions and checked into CI as goldens.
//
// Usage:
//
//	r2caudit [-config NAME] [-variants N] [-seed N] [-scale N] [-gadget-len N]
//	         [-jobs N] [-json] [-metrics-out FILE] [-trace FILE] [-trace-format jsonl|chrome]
//	         [-listen ADDR] <workload>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"r2c/internal/attack"
	"r2c/internal/audit"
	"r2c/internal/defense"
	"r2c/internal/harness"
	"r2c/internal/tir"
	"r2c/internal/workload"
)

// options are r2caudit's own flags; ops holds the shared ones.
type options struct {
	cfgName                          string
	variants, scale, gadgetLen, jobs int
	seed                             uint64
	asJSON                           bool
	ops                              harness.Flags
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("r2caudit", flag.ExitOnError)
	fs.StringVar(&o.cfgName, "config", "r2c", "defense configuration (baseline, r2c, push, avx, btdp, prolog, layout, oia, ...)")
	fs.IntVar(&o.variants, "variants", 16, "number of re-diversified builds to compare (≥ 2)")
	fs.Uint64Var(&o.seed, "seed", 1, "base seed; variant i builds with seed+i")
	fs.IntVar(&o.scale, "scale", 8, "workload scale divisor")
	fs.IntVar(&o.gadgetLen, "gadget-len", audit.DefaultGadgetLen, "instruction-window length of the gadget survivor analysis")
	fs.IntVar(&o.jobs, "jobs", 0, "parallel builds (0 = GOMAXPROCS, 1 = serial); the report is identical at any width")
	fs.BoolVar(&o.asJSON, "json", false, "emit the machine-readable JSON report instead of the text report")
	o.ops.BindSinks(fs)
	o.ops.BindListen(fs)
	fs.Usage = harness.Usage(fs, "<workload|victim|FILE.tir>")
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
	mod, err := resolveModule(fs.Arg(0), o.scale)
	if err != nil {
		fatal(err)
	}

	// The audit always publishes into a registry (its report aggregates
	// registry histograms), so force one even with no file sink requested.
	run, err := o.ops.Open(harness.Config{Tool: "r2caudit", Jobs: o.jobs, Registry: true})
	if err != nil {
		os.Exit(run.Fail(err))
	}
	rep, err := audit.Run(audit.Options{
		Module:    mod,
		Cfg:       cfg,
		Variants:  o.variants,
		BaseSeed:  o.seed,
		GadgetLen: o.gadgetLen,
		Eng:       run.Eng,
		Obs:       run.Obs,
	})
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
	os.Exit(run.Close(0))
}

// resolveModule mirrors r2cc's workload resolution: a built-in workload
// name, the attack victim, or a .tir file.
func resolveModule(name string, scale int) (*tir.Module, error) {
	if name == "victim" {
		return attack.Victim(), nil
	}
	if b, ok := workload.ByName(name); ok {
		return b.Build(scale), nil
	}
	if strings.HasSuffix(name, ".tir") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return tir.Parse(string(src))
	}
	return nil, fmt.Errorf("unknown workload %q (SPEC name, nginx, apache, victim, or a .tir file)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "r2caudit:", err)
	os.Exit(1)
}
