// Command r2cc is the compiler driver: it compiles a built-in workload (or
// the attack victim) under a named defense configuration and can dump the
// disassembly, the text/data layout, and a paused stack view — the
// executable version of the paper's Figures 2, 3 and 5.
//
// Usage:
//
//	r2cc [-config NAME] [-seed N] [-dump FUNC] [-layout] [-stack] [-run] <workload>
//
// Workloads: any SPEC benchmark name (perlbench, gcc, ...), nginx, apache,
// victim, or a path to a .tir source file (see internal/tir's textual
// format).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/harness"
	"r2c/internal/sim"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// options are r2cc's own flags; ops holds the shared ones.
type options struct {
	cfgName, dump      string
	seed               uint64
	layout, stack, run bool
	scale              int
	ops                harness.Flags
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("r2cc", flag.ExitOnError)
	fs.StringVar(&o.cfgName, "config", "r2c", "defense configuration (baseline, r2c, push, avx, btdp, prolog, layout, oia, readactor, krx, ...)")
	fs.Uint64Var(&o.seed, "seed", 1, "diversification seed")
	fs.StringVar(&o.dump, "dump", "", "disassemble the named function")
	fs.BoolVar(&o.layout, "layout", false, "print the text/data layout")
	fs.BoolVar(&o.stack, "stack", false, "run to a pause point and dump the stack (the Figure 2 view)")
	fs.BoolVar(&o.run, "run", false, "execute the program and report statistics (the telemetry and -profile flags apply to this run)")
	fs.IntVar(&o.scale, "scale", 8, "workload scale divisor")
	o.ops.BindSinks(fs)
	o.ops.BindProfile(fs)
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
	var mod *tir.Module
	if fs.Arg(0) == "victim" {
		mod = attack.Victim()
	} else if b, ok := workload.ByName(fs.Arg(0)); ok {
		mod = b.Build(o.scale)
	} else if strings.HasSuffix(fs.Arg(0), ".tir") {
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		mod, err = tir.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	} else {
		fatal(fmt.Errorf("unknown workload %q (SPEC name, nginx, apache, victim, or a .tir file)", fs.Arg(0)))
	}

	// BuildImage is the same compile+link pipeline the experiment harnesses
	// memoize in their build caches; going through it keeps the seed
	// derivation in one place.
	img, err := sim.BuildImage(mod, cfg, o.seed)
	if err != nil {
		fatal(err)
	}
	prog := img.Prog
	st := mod.Stats()
	fmt.Printf("%s under %s (seed %d): %d funcs, %d TIR instrs, %d call sites, text %d KiB, data %d KiB\n",
		mod.Name, cfg.Name, o.seed, st.Funcs, st.Instrs, st.CallSites,
		img.TextSize()/1024, img.DataSize()/1024)

	if o.dump != "" {
		f := prog.Func(o.dump)
		if f == nil {
			fatal(fmt.Errorf("no function %q", o.dump))
		}
		fmt.Print(f.Disasm())
		if len(f.CallSites) > 0 {
			fmt.Println("call sites:")
			for _, cs := range f.CallSites {
				callee := cs.Callee
				if callee == "" {
					callee = "<indirect>"
				}
				fmt.Printf("  #%d -> %s: pre=%d post=%d nops=%d stackargs=%d\n",
					cs.ID, callee, cs.Pre, cs.Post, cs.NumNOPs, cs.StackArgs)
			}
		}
	}

	if o.layout {
		fmt.Println("text layout:")
		for i, name := range img.FuncOrder {
			pf := img.Funcs[name]
			tag := ""
			if pf.F.BoobyTrap {
				tag = " [booby trap]"
			} else if pf.F.Stub {
				tag = " [stub]"
			}
			fmt.Printf("  %#x +%-5d %s%s\n", pf.Start, pf.End-pf.Start, name, tag)
			if i > 60 {
				fmt.Printf("  ... (%d more)\n", len(img.FuncOrder)-i)
				break
			}
		}
		fmt.Println("data layout:")
		for i, name := range img.DataOrder {
			ds := img.DataSyms[name]
			fmt.Printf("  %#x +%-5d %-12s %s\n", ds.Addr, ds.Size, ds.Kind, name)
			if i > 60 {
				fmt.Printf("  ... (%d more)\n", len(img.DataOrder)-i)
				break
			}
		}
	}

	if o.stack {
		if fs.Arg(0) != "victim" {
			fatal(fmt.Errorf("-stack needs the victim workload"))
		}
		s, err := attack.NewScenario(cfg, o.seed)
		if err != nil {
			fatal(err)
		}
		dumpStack(s)
	}

	if o.run {
		run, err := o.ops.Open(harness.Config{Tool: "r2cc"})
		if err != nil {
			os.Exit(run.Fail(err))
		}
		proc, err := sim.NewProcessFromImage(img, o.seed, run.Obs)
		if err != nil {
			os.Exit(run.Fail(err))
		}
		mach := vm.New(proc, vm.EPYCRome())
		if run.Obs.Profiling() {
			mach.EnableProfiler()
		}
		res, err := mach.Run(sim.DefaultBudget)
		if reg := run.Obs.Reg(); reg != nil {
			mach.PublishMetrics(reg)
		}
		if err != nil {
			os.Exit(run.Fail(err))
		}
		fmt.Printf("executed %d instructions, %d calls, %.0f cycles (%.3f ms on %s), maxrss %d KiB\n",
			res.Instructions, res.Calls, res.Cycles, res.Seconds(vm.EPYCRome())*1e3,
			vm.EPYCRome().Name, res.MaxRSSBytes/1024)
		fmt.Printf("output: %#x (halted=%v)\n", res.Output, res.Halted)
		if p := mach.Profiler(); p != nil {
			p.WriteTable(os.Stdout, o.ops.Top)
		}
		if code := run.Close(0); code != 0 {
			os.Exit(code)
		}
	}
}

// dumpStack prints the paused stack with toolchain annotations — the
// executable rendition of Figure 2: under the baseline the return address
// sits alone at a predictable spot; under R2C it hides among BTRAs with
// BTDPs mixed into the data.
func dumpStack(s *attack.Scenario) {
	rsp := s.RSP()
	fmt.Printf("paused at pc=%#x rsp=%#x; stack view (64 words):\n", s.Mach.CPU.PC, rsp)
	type ann struct {
		addr uint64
		note string
	}
	var anns []ann
	for off := uint64(0); off < 64*8; off += 8 {
		addr := rsp + off
		v, err := s.Proc.Space.Read64(addr)
		if err != nil {
			break
		}
		note := ""
		switch {
		case isRealRAValue(s, v):
			note = "<- RETURN ADDRESS"
		case s.Proc.Img.IsBoobyTrapAddr(v):
			note = "<- booby-trapped return address (BTRA)"
		case isBTDP(s, v):
			note = "<- booby-trapped data pointer (BTDP)"
		case s.Proc.Heap.Contains(v):
			note = "<- heap pointer"
		case s.Proc.Img.FuncAt(v) != nil:
			note = "<- code pointer"
		}
		anns = append(anns, ann{addr, fmt.Sprintf("%#018x  %s", v, note)})
	}
	sort.Slice(anns, func(i, j int) bool { return anns[i].addr < anns[j].addr })
	for _, a := range anns {
		fmt.Printf("  %#x: %s\n", a.addr, a.note)
	}
}

func isRealRAValue(s *attack.Scenario, v uint64) bool {
	for _, ra := range s.Proc.Img.CallSiteRA {
		if ra == v {
			return true
		}
	}
	return false
}

func isBTDP(s *attack.Scenario, v uint64) bool {
	for _, b := range s.Proc.BTDPValues {
		if b == v {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "r2cc:", err)
	os.Exit(1)
}
