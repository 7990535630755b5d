package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"r2c/internal/attack"
	"r2c/internal/defense"
)

// contract is the part of BENCHMARK.json the smoke tests hold the output to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs one workload at its smoke size through the command's entry
// point and decodes the final output line, checking its shape.
func runTiny(t *testing.T, name string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", name, "--seconds", "0", "--trace", trace, "--root", ".."}, tinySizes(), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d\n%s", name, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(keys), last)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, want %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, the contract names %d", len(got), len(want))
	}
}

// TestSmoke runs every workload at its tiny size, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit
// and that the modeled outputs pass the correctness gate.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkMetrics(t, runTiny(t, w.Name, "0").Metrics, c.EndToEnd)
			checkMetrics(t, runTiny(t, w.Name, "1").Metrics, c.PerLayer)
		})
	}
}

// TestCorruptedReferenceTrips captures each workload's rows at the tiny
// size, then gates a pass against an untouched and a corrupted copy: the
// first must pass, the second must fail exactly the operations behind the
// corrupted row.
func TestCorruptedReferenceTrips(t *testing.T) {
	sz := tinySizes()
	cfg := &config{seed: defaultSeed, root: "..", capture: true}
	sweep := func(ref rows) workloadSpec { return &sweepWorkload{size: sz.sweep, ref: ref} }
	attacks := func(ref rows) workloadSpec { return &attackWorkload{size: sz.attack, ref: ref} }
	cases := []struct {
		name       string
		with       func(ref rows) workloadSpec
		key        string
		wantFailed int
	}{
		{"sweep-total", sweep, "vm.instructions", 4},
		{"sweep-row", sweep, "bench.figure6.overhead_pct{benchmark=gcc,machine=i9-9900K}", 2},
		{"attack-rate", attacks, "bench.table3.detection_rate{defense=r2c-full}", 16},
		{"attack-trial", attacks, "attack.outcome{attack=aocr,defense=krx,trial=2}", 1},
		{"serve", func(ref rows) workloadSpec { return &serveWorkload{size: sz.serve, ref: ref} }, "fleet.latency_p99_s", 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pass := func(ref rows) (runner, passStats) {
				r, err := tc.with(ref).setup(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := r.pass(&meter{})
				if err != nil {
					t.Fatal(err)
				}
				return r, ps
			}
			r, _ := pass(nil)
			good := r.reference()
			if _, ok := good[tc.key]; !ok {
				t.Fatalf("rows lack %s", tc.key)
			}
			if _, ps := pass(copyRows(good)); ps.failed != 0 {
				t.Fatalf("untouched reference: %d/%d failed: %v", ps.failed, ps.ops, ps.problems)
			}
			bad := copyRows(good)
			bad[tc.key] *= 1.001
			bad[tc.key] += 1e-9
			_, ps := pass(bad)
			if ps.failed != tc.wantFailed || !strings.Contains(strings.Join(ps.problems, "\n"), tc.key) {
				t.Fatalf("corrupted %s: %d/%d failed, want %d; problems %v", tc.key, ps.failed, ps.ops, tc.wantFailed, ps.problems)
			}
		})
	}
}

// TestPIROPRestartLoopMatchesProgram pins the benchmark's spelled-out
// persistent PIROP campaign to attack.PIROPPersistent.
func TestPIROPRestartLoopMatchesProgram(t *testing.T) {
	for _, cfg := range []defense.Config{defense.R2CFull(), defense.Baselines()[0]} {
		for _, seed := range []uint64{7, 1038} {
			c := &campaign{cfg: cfg, attack: "pirop", seed: seed}
			got := runCampaign(c, newTracer(false), nil)
			if got.err != nil {
				t.Fatal(got.err)
			}
			if want := attack.PIROPPersistent(cfg, seed, piropRestarts); got.o != want {
				t.Errorf("%s seed %d: benchmark loop %v, program %v", cfg.Name, seed, got.o, want)
			}
		}
	}
}

// TestTracerSelfTime checks the self-time accounting on nested spans and
// that a disabled tracer records nothing.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true)
	outer := tr.begin("group", false)
	inner := tr.begin("layer", true)
	tr.end(inner)
	tr.end(outer)
	spans := flatten(tr.recorded())
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	for i := range spans {
		if spans[i].Name == "group" {
			spans[i].DurNs = 10
		} else {
			spans[i].DurNs = 5
			if spans[i].Parent != outer.ID() {
				t.Fatalf("layer span's parent %x, want %x", spans[i].Parent, outer.ID())
			}
		}
	}
	if got := layerSelf(spans); got != 5 {
		t.Fatalf("layer self time %v, want 5ns", got)
	}
	for i := range spans {
		spans[i].Attrs = nil
	}
	if got := layerSelf(spans); got != 10 {
		t.Fatalf("layer self time with both spans as layers %v, want 10ns", got)
	}
	off := newTracer(false)
	if sp := off.begin("x", true); sp != nil || len(off.recorded()) != 0 {
		t.Fatal("a disabled tracer recorded a span")
	}
}

// TestMeterSamplesHost checks the meter's sampling cadence and scaling:
// short units get a sample before the first and then one per sampleEvery
// of work, a long unit gets samples from beside it, and the scaled time
// is the measured time over the host factor.
func TestMeterSamplesHost(t *testing.T) {
	busy := func(d time.Duration) func() error {
		return func() error {
			for start := time.Now(); time.Since(start) < d; {
			}
			return nil
		}
	}
	var short meter
	for i := 0; i < 5; i++ {
		if err := short.unit(busy(30 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	short.finish()
	// Before the first unit, after the fourth (120 ms of work) and after
	// the fifth.
	if short.samples != 3 || len(short.units) != 5 {
		t.Errorf("five 30 ms units: %d samples, %d units; want 3 and 5", short.samples, len(short.units))
	}
	var long meter
	if err := long.during(busy(450 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if long.samples < 2 || long.samples > 5 {
		t.Errorf("a 450 ms unit: %d samples beside it, want about 4", long.samples)
	}
	var tiny meter
	if err := tiny.during(busy(time.Millisecond)); err != nil || tiny.samples != 1 {
		t.Errorf("a 1 ms unit: %d samples, want 1 after it (err %v)", tiny.samples, err)
	}
	for _, m := range []*meter{&short, &long, &tiny} {
		if f := m.hostFactor(); !(f > 0) || math.Abs(m.scaled()*f-m.seconds()) > 1e-9*m.seconds() {
			t.Errorf("host factor %v: scaled %v s, measured %v s", f, m.scaled(), m.seconds())
		}
	}
}
