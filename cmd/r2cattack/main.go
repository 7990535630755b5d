// Command r2cattack is the security harness: it regenerates the paper's
// security artifacts — Table 3 (defense comparison against ROP, JIT-ROP,
// PIROP and AOCR), the BTRA guessing probabilities of Section 7.2.1, the
// crash side-channel demonstration of Section 7.3, and the design-decision
// ablations of Sections 4.1 and 5.2 (dynamic BTRA sets, callee-chosen BTRA
// sets, the naive in-data BTDP array).
//
// Usage:
//
//	r2cattack [flags] <table3|prob|sidechannel|sidechannel-hardened|bruteforce|ablations|aocr|mvee|all>
//
// `r2cattack -h` lists every flag. Beside its own -trials, -jobs, -overheads
// and -forensics, r2cattack binds the sinks, forensics, engine-policy and
// baseline groups of internal/harness.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"r2c/internal/attack"
	"r2c/internal/bench"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/harness"
	"r2c/internal/incident"
	"r2c/internal/mvee"
	"r2c/internal/telemetry"
	"r2c/internal/vm"
)

// allExperiments is the order `all` runs them; it doubles as the known-name
// list for upfront validation.
var allExperiments = []string{"table3", "prob", "sidechannel", "sidechannel-hardened", "bruteforce", "ablations", "aocr", "mvee"}

// options are r2cattack's own flags; ops holds the shared ones.
type options struct {
	trials, jobs         int
	overheads, forensics bool
	ops                  harness.Flags
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("r2cattack", flag.ExitOnError)
	fs.IntVar(&o.trials, "trials", 10, "Monte-Carlo trials per defense/attack cell")
	fs.IntVar(&o.jobs, "jobs", 0, "parallel trials/simulation cells (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	fs.BoolVar(&o.overheads, "overheads", false, "also measure Table 3 overhead column (slow)")
	fs.BoolVar(&o.forensics, "forensics", false, "with table3: print the per-trial trap provenance table (which trap class caught each probe) and the incident correlation summary; implies -flight 64 unless set")
	o.ops.BindSinks(fs)
	o.ops.BindListen(fs)
	o.ops.BindForensics(fs)
	o.ops.BindSampleEvery(fs)
	o.ops.BindEngine(fs)
	o.ops.BindBaseline(fs)
	fs.Usage = harness.Usage(fs, "<"+strings.Join(allExperiments, "|")+"|all>")
	return fs, o
}

func main() {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])

	// With -compare the experiment and its trial count default to what the
	// baseline recorded; explicit flags and a positional argument win.
	oldBase, err := o.ops.AdoptBaseline(fs, map[string]*int{"trials": &o.trials})
	if err != nil {
		fmt.Fprintf(os.Stderr, "r2cattack: %v\n", err)
		os.Exit(1)
	}
	if fs.NArg() != 1 && !(fs.NArg() == 0 && oldBase != nil) {
		fs.Usage()
		os.Exit(2)
	}
	want := fs.Arg(0)
	if want == "" && oldBase != nil {
		want = oldBase.Label
	}

	names := []string{want}
	if want == "all" {
		names = allExperiments
	} else if !known(want) {
		fmt.Fprintf(os.Stderr, "r2cattack: unknown experiment %q\nknown experiments: all %s\n", want, strings.Join(allExperiments, " "))
		os.Exit(2)
	}

	// -forensics implies a flight recorder: the provenance table is most
	// useful with the control-flow tail that led to each detonation.
	flightSet := false
	fs.Visit(func(f *flag.Flag) { flightSet = flightSet || f.Name == "flight" })
	if o.forensics && !flightSet {
		o.ops.FlightCap = 64
	}
	run, err := o.ops.Open(harness.Config{Tool: "r2cattack", Jobs: o.jobs, Label: want, Incidents: o.forensics})
	if err != nil {
		os.Exit(run.Fail(err))
	}
	// The attack package routes every victim/reference build through the
	// engine's cache, which collapses the Monte-Carlo campaigns' repeated
	// same-seed rebuilds (worker-pool restarts, persistent retries) to one
	// compile+link each. Exec cells, attack scenarios and the MVEE demo all
	// append to the one incident log.
	attack.UseBuildCache(run.Eng.Cache)
	attack.UseIncidentLog(run.Incidents)
	// Ctrl-C/SIGTERM cancels the campaign context: queued trials never
	// start and in-flight ones run their watchdogs down.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	opt := bench.Options{Scale: 4, Runs: 1, Out: os.Stdout, Obs: run.Obs, Jobs: o.jobs, Eng: run.Eng, Ctx: ctx}

	experiment := func(name string) error {
		defer run.Obs.Timer("attack.experiment", "name", name).Time()()
		switch name {
		case "table3":
			rows, err := bench.Table3(opt, o.trials, o.overheads)
			if err == nil && o.forensics {
				bench.PrintForensics(opt, rows)
				incident.WriteSummary(os.Stdout, incident.Correlate(run.Incidents.Records()))
			}
			return err
		case "prob":
			_, err := bench.Prob(opt, 6*o.trials)
			return err
		case "sidechannel":
			_, err := bench.SideChannel(opt)
			return err
		case "ablations":
			return ablations()
		case "aocr":
			return aocrDemo(run.Obs)
		case "mvee":
			return mveeDemo(run.Incidents)
		case "sidechannel-hardened":
			return sideChannelHardened(run.Obs)
		case "bruteforce":
			return bruteforce()
		}
		return fmt.Errorf("unknown experiment %q", name)
	}

	exitCode := 0
	for _, n := range names {
		if err := experiment(n); err != nil {
			// Partial cell failures degrade to a summary plus a failing
			// exit code; hard errors and cancellation abort as before.
			be, ok := exec.AsBatchError(err)
			if !ok || ctx.Err() != nil {
				os.Exit(run.Fail(fmt.Errorf("%s: %w", n, err)))
			}
			fmt.Fprintf(os.Stderr, "r2cattack %s: partial results: %s\n", n, be.Summary())
			exitCode = 1
		}
	}
	exitCode = run.Close(exitCode)
	fmt.Println(run.Eng.Footer("r2cattack"))
	os.Exit(exitCode)
}

func known(name string) bool {
	for _, n := range allExperiments {
		if n == name {
			return true
		}
	}
	return false
}

// mveeDemo runs the Section 7.3 MVEE extension: two R2C variants in
// lockstep; a replicated memory corruption diverges and is detected.
func mveeDemo(ilog *incident.Log) error {
	fmt.Println("MVEE extension (Section 7.3): two diversified variants in lockstep")
	e, err := mvee.New(attack.Victim(), defense.R2CFull(), 2, 42, vm.EPYCRome())
	if err != nil {
		return err
	}
	e.Incidents = ilog
	v, err := e.Run(0, 0)
	if err != nil {
		return err
	}
	fmt.Printf("  benign run: diverged=%v trapped=%v (variants agree bit-for-bit)\n", v.Diverged, v.Trapped)

	e2, err := mvee.New(attack.Victim(), defense.R2CFull(), 2, 42, vm.EPYCRome())
	if err != nil {
		return err
	}
	e2.Incidents = ilog
	img := e2.Variants[0].Proc.Img
	e2.CorruptAll(img.DataSyms[attack.SymSecretKey].Addr, attack.MagicArg)
	e2.CorruptAll(img.DataSyms[attack.SymAdminPtr].Addr, img.Funcs[attack.SymSecretFunc].Start)
	v2, err := e2.Run(0, 0)
	if err != nil {
		return err
	}
	fmt.Printf("  corrupted run: detected=%v (%s)\n", v2.Detected(), v2.Reason)
	return nil
}

// sideChannelHardened reruns the Section 7.3 side channel against the
// proposed BTRA consistency checks.
func sideChannelHardened(obs *telemetry.Observer) error {
	cfg := defense.R2CFull()
	cfg.Name = "r2c-btra-checks"
	cfg.CheckBTRAsOnReturn = true
	detections := 0
	trials := 30
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		s, err := attack.NewScenarioObserved(cfg, seed, obs)
		if err != nil {
			return err
		}
		cands, err := s.RACandidates()
		if err != nil {
			return err
		}
		// One zeroing probe per campaign, as the side channel does; the
		// topmost candidate is always a pre-offset BTRA, the kind the
		// post-return check samples (one random slot per call site, so
		// each probe is caught with probability ≈ 1/pre).
		if err := s.Write(cands[len(cands)-1].Addr, 0); err != nil {
			return err
		}
		if o := s.Resume(); o == attack.Detected {
			detections++
		}
	}
	fmt.Printf("BTRA consistency checks (Section 7.3 hardening): %d/%d zeroing probes detected (expected ≈ trials/pre)\n",
		detections, trials)
	return nil
}

// bruteforce runs the Section 4.1 Blind ROP and Section 7.2.3 heap feng
// shui experiments.
func bruteforce() error {
	fmt.Println("Blind ROP stop-gadget scan against a restarting worker (Section 4.1):")
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		r, err := attack.BlindROP(cfg, 31, 12)
		if err != nil {
			return err
		}
		fmt.Printf("  vs %-10s: %d probes, gadget found=%v, booby-trap alarms=%d\n",
			cfg.Name, r.Probes, r.FoundGadget, r.Detections)
	}
	fmt.Println("heap feng shui pairing filter (Section 7.2.3):")
	r, err := attack.FengShui(defense.R2CFull(), 5, 4096)
	if err != nil {
		return err
	}
	fmt.Printf("  vs r2c-full  : kept %d paired pointers, %d safe, %d still BTDPs\n",
		r.PairsFound, r.SafePicks, r.BTDPPicks)
	return nil
}

// aocrDemo narrates one full AOCR attack against the unprotected baseline
// and against full R2C.
func aocrDemo(obs *telemetry.Observer) error {
	fmt.Println("AOCR whole-function-reuse demo (Section 2.3 attack chain)")
	for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
		tally := attack.Tally{}
		for seed := uint64(1); seed <= 8; seed++ {
			s, err := attack.NewScenarioObserved(cfg, seed, obs)
			if err != nil {
				return err
			}
			tally.Add(s.AOCR())
		}
		fmt.Printf("  vs %-10s: %v\n", cfg.Name, &tally)
	}
	return nil
}

// ablations demonstrates the design-decision attacks.
func ablations() error {
	fmt.Println("Design-decision ablations (Sections 4.1, 5.2)")

	// Property B: dynamic BTRA sets fall to two observations.
	bad := defense.R2CFull()
	bad.Name = "r2c-dynamic-btras"
	bad.InsecureDynamicBTRAs = true
	for _, cfg := range []defense.Config{defense.R2CFull(), bad} {
		rem, isRA, err := attack.DynamicBTRAAttack(cfg, 11)
		if err != nil {
			return err
		}
		fmt.Printf("  property B  vs %-22s: %2d candidates after intersection, RA identified: %v\n",
			cfg.Name, rem, isRA)
	}

	// Property C: per-callee BTRA sets fall to a two-call-site diff.
	bad2 := defense.R2CFull()
	bad2.Name = "r2c-callee-btras"
	bad2.InsecureCalleeBTRAs = true
	for _, cfg := range []defense.Config{defense.R2CFull(), bad2} {
		uniq, allRA, err := attack.CalleeBTRAAttack(cfg, 13)
		if err != nil {
			return err
		}
		fmt.Printf("  property C  vs %-22s: %2d values differ between call sites, all real RAs: %v\n",
			cfg.Name, uniq, allRA)
	}

	// Figure 5: the naive in-data BTDP array lets the attacker filter
	// BTDPs out; the hardened layout does not.
	naive := defense.R2CFull()
	naive.Name = "r2c-naive-btdp-array"
	naive.BTDPNaiveDataArray = true
	for _, cfg := range []defense.Config{defense.R2CFull(), naive} {
		kept, keptBTDPs, err := attack.NaiveBTDPArrayAttack(cfg, 17)
		if err != nil {
			return err
		}
		fmt.Printf("  figure 5    vs %-22s: attacker keeps %2d heap pointers, %2d of them are still BTDPs\n",
			cfg.Name, kept, keptBTDPs)
	}
	return nil
}
