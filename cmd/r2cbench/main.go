// Command r2cbench is the performance harness: it regenerates the paper's
// performance artifacts — Table 1 (component overheads), Table 2 (call
// frequencies), Figure 6 (full R2C on four machines), the webserver
// throughput experiment (Section 6.2.4), the memory-overhead experiment
// (Section 6.2.5), the offset-invariant addressing measurement (Section
// 6.2.1), the AVX-512 variant (Section 7.1), and the scalability check
// (Section 6.3).
//
// Usage:
//
//	r2cbench [flags] <experiment>
//
// `r2cbench -h` lists every flag. Beside its own -scale, -runs, -jobs and
// -profile-format, r2cbench binds every shared flag group of
// internal/harness: sinks, profile, forensics, engine policy and baseline.
//
// -baseline records the run's performance numbers as a committed baseline
// (BENCH_<label>.json); -compare re-runs a committed baseline's experiment
// and exits nonzero if any metric regressed beyond the noise thresholds.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"r2c/internal/bench"
	"r2c/internal/exec"
	"r2c/internal/harness"
)

// experiments maps every known experiment name to its driver, in the order
// `all` runs them.
var experiments = []struct {
	name string
	run  func(bench.Options) error
}{
	{"table1", func(o bench.Options) error { _, err := bench.Table1(o); return err }},
	{"table2", func(o bench.Options) error { _, err := bench.Table2(o); return err }},
	{"figure6", func(o bench.Options) error { _, err := bench.Figure6(o); return err }},
	{"webserver", func(o bench.Options) error { _, err := bench.Webserver(o); return err }},
	{"memory", func(o bench.Options) error { _, err := bench.Memory(o); return err }},
	{"oia", func(o bench.Options) error { _, err := bench.OIA(o); return err }},
	{"avx512", func(o bench.Options) error { _, err := bench.AVX512(o); return err }},
	{"scale", func(o bench.Options) error { _, err := bench.Scale(o, 2000); return err }},
	{"ablations", func(o bench.Options) error { _, err := bench.Ablations(o); return err }},
	{"diversity", func(o bench.Options) error { _, err := bench.Diversity(o); return err }},
}

func knownExperiments() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// options are r2cbench's own flags; ops holds the shared ones.
type options struct {
	scale, runs, jobs int
	profileFormat     string
	ops               harness.Flags
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("r2cbench", flag.ExitOnError)
	fs.IntVar(&o.scale, "scale", 1, "workload scale divisor (1 = full calibrated size)")
	fs.IntVar(&o.runs, "runs", 3, "differently-seeded builds per measurement (median)")
	fs.IntVar(&o.jobs, "jobs", 0, "parallel simulation cells (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	fs.StringVar(&o.profileFormat, "profile-format", "table", "-profile output: table (flat hot functions) or folded (flamegraph.pl/speedscope folded stacks)")
	o.ops.BindSinks(fs)
	o.ops.BindListen(fs)
	o.ops.BindProfile(fs)
	o.ops.BindForensics(fs)
	o.ops.BindSampleEvery(fs)
	o.ops.BindEngine(fs)
	o.ops.BindBaseline(fs)
	fs.Usage = harness.Usage(fs, "<experiment>", "experiments: "+strings.Join(knownExperiments(), " "))
	return fs, o
}

func main() {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])
	if o.profileFormat != "table" && o.profileFormat != "folded" {
		fmt.Fprintf(os.Stderr, "r2cbench: unknown -profile-format %q (want table or folded)\n", o.profileFormat)
		os.Exit(2)
	}

	// With -compare the experiment and its parameters default to what the
	// baseline recorded, so `r2cbench -compare BENCH_figure6.json` alone
	// re-runs the baseline's exact configuration. Explicit flags win.
	oldBase, err := o.ops.AdoptBaseline(fs, map[string]*int{"scale": &o.scale, "runs": &o.runs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "r2cbench: %v\n", err)
		os.Exit(1)
	}
	if fs.NArg() != 1 && !(fs.NArg() == 0 && oldBase != nil) {
		fs.Usage()
		os.Exit(2)
	}

	// Validate the experiment name before doing any work, so a typo fails
	// fast instead of after minutes of earlier experiments.
	want := fs.Arg(0)
	if want == "" && oldBase != nil {
		want = oldBase.Label
	}
	var selected []struct {
		name string
		run  func(bench.Options) error
	}
	if want == "all" {
		selected = experiments
	} else {
		for _, e := range experiments {
			if e.name == want {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "r2cbench: unknown experiment %q\nknown experiments: %s\n", want, strings.Join(knownExperiments(), " "))
			os.Exit(2)
		}
	}

	run, err := o.ops.Open(harness.Config{Tool: "r2cbench", Jobs: o.jobs, Label: want})
	if err != nil {
		os.Exit(run.Fail(err))
	}
	// Ctrl-C/SIGTERM cancels the sweep context: in-flight cells run their
	// watchdogs down, queued cells never start, and the journal keeps what
	// finished — exactly what -resume picks up.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	opt := bench.Options{Scale: o.scale, Runs: o.runs, Out: os.Stdout, Obs: run.Obs, Jobs: o.jobs, Eng: run.Eng, Ctx: ctx}

	exitCode := 0
	for _, e := range selected {
		start := time.Now()
		stop := run.Obs.Timer("bench.experiment", "name", e.name).Time()
		err := e.run(opt)
		stop()
		if err != nil {
			// A partial failure (some cells died, the rest produced a
			// table) degrades to a summary plus a failing exit code; hard
			// errors and cancellation still abort the invocation.
			be, ok := exec.AsBatchError(err)
			if !ok || ctx.Err() != nil {
				os.Exit(run.Fail(fmt.Errorf("%s: %w", e.name, err)))
			}
			fmt.Fprintf(os.Stderr, "r2cbench %s: partial results: %s\n", e.name, be.Summary())
			exitCode = 1
		}
		fmt.Printf("[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if o.ops.Profile {
		if o.profileFormat == "folded" {
			run.Sinks.WriteFolded(os.Stdout)
		} else {
			run.Sinks.WriteHotFunctions(os.Stdout, o.ops.Top)
		}
	}
	exitCode = run.Close(exitCode)
	fmt.Println(run.Eng.Footer("r2cbench"))
	os.Exit(exitCode)
}
