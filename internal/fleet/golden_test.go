package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/incident"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the fleet golden files under testdata/")

// goldenCase is one small fleet run whose deterministic outputs are pinned
// byte for byte: the supervised nginx fleet under an adaptive overwrite
// attacker (divergence detections), and a single-variant dispatch handler
// whose function pointer is overwritten with an unmapped address (fault
// incidents carrying flight-recorder frames), each healed by a fresh-seed
// rebuild and by an in-place reroll.
type goldenCase struct {
	name string
	opts func() Options
}

// dispatchModule is a small request handler that ends in an indirect call
// through the handler_ptr global, after some call-dense work with heap
// churn.
func dispatchModule() *tir.Module {
	mb := tir.NewModule("dispatch")
	mb.AddFuncPtr("handler_ptr", "handler")
	h := mb.NewFunc("handler", 1)
	h.Ret(h.Bin(tir.OpXor, h.Param(0), h.Const(0x0b11)))
	step := mb.NewFunc("step", 2)
	step.Ret(step.Bin(tir.OpAdd, step.Bin(tir.OpMul, step.Param(0), step.Const(31)), step.Param(1)))
	main := mb.NewFunc("main", 0)
	buf := main.Alloc(main.Const(64))
	acc := main.Const(7)
	workload.Loop(main, 0, 40, func(i tir.Reg) {
		main.Store(buf, 8, i)
		main.BinTo(acc, tir.OpAdd, acc, main.Call("step", acc, main.Load(buf, 8)))
	})
	main.Free(buf)
	fp := main.Load(main.AddrGlobal("handler_ptr"), 0)
	main.Output(main.CallIndirect(fp, acc))
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func goldenCases() []goldenCase {
	mveeRun := func(heal string) func() Options {
		return func() Options {
			o := webOptions(1)
			o.MVEE = 3
			o.Requests = 160
			o.Heal = heal
			return o
		}
	}
	singleRun := func(heal string) func() Options {
		return func() Options {
			return Options{
				Module:   dispatchModule(),
				Cfg:      defense.R2CFull(),
				Prof:     vm.EPYCRome(),
				Variants: 3,
				BaseSeed: 5,
				Requests: 240,
				Heal:     heal,
				Attack:   Schedule{Start: 10, Every: 15, Mode: ModeOverwrite, Target: "handler_ptr", Value: 0x10},
				Eng:      exec.New(1, nil),
			}
		}
	}
	return []goldenCase{
		{"rebuild-mvee3", mveeRun(HealRebuild)},
		{"reroll-mvee3", mveeRun(HealReroll)},
		{"rebuild-single", singleRun(HealRebuild)},
		{"reroll-single", singleRun(HealReroll)},
	}
}

// TestFleetGoldenOutputs pins Report.Sim and the incident timeline of small
// fleet runs to the committed golden files, so changes to how the fleet
// instantiates processes or samples its series cannot move a modeled result.
// Regenerate with `go test ./internal/fleet -run Golden -update` only for an
// intended change of modeled behaviour.
func TestFleetGoldenOutputs(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			o := gc.opts()
			o.Obs = &telemetry.Observer{Registry: telemetry.NewRegistry(), FlightCap: 32}
			ilog := incident.NewLog()
			o.Incidents = ilog
			fl, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fl.Serve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sim, err := json.MarshalIndent(rep.Sim, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var inc bytes.Buffer
			if err := ilog.WriteJSON(&inc); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", gc.name+".sim.json"), append(sim, '\n'))
			checkGolden(t, filepath.Join("testdata", gc.name+".incidents.json"), inc.Bytes())
		})
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden output:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
