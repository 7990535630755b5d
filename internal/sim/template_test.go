package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"r2c/internal/attack"
	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

// instance is everything a process run makes observable: the full machine
// result and error, the retained trap stream, the flight-recorder events,
// and the observer's registry snapshot and emitted events.
type instance struct {
	res    *vm.Result
	err    string
	traps  []rt.TrapEvent
	flight []telemetry.FlightEvent
	reg    *telemetry.Snapshot
	events []telemetry.Event
}

func newInstanceObserver() *telemetry.Observer {
	return &telemetry.Observer{Registry: telemetry.NewRegistry(), Tracer: &telemetry.Collector{}, FlightCap: 64}
}

// runInstance optionally corrupts the loaded process (the same write for a
// fresh and a cloned one) and runs it to completion.
func runInstance(t *testing.T, p *rt.Process, obs *telemetry.Observer, corrupt func(*rt.Process)) instance {
	t.Helper()
	if corrupt != nil {
		corrupt(p)
	}
	res, err := sim.ExecProcessCtx(context.Background(), p, vm.EPYCRome(), obs, 50_000_000)
	in := instance{res: res, traps: p.Traps(), flight: p.Flight.Events(), reg: obs.Reg().Snapshot(), events: obs.Tracer.(*telemetry.Collector).Events()}
	if err != nil {
		in.err = err.Error()
	}
	return in
}

func diffInstances(t *testing.T, what string, fresh, clone instance) {
	t.Helper()
	if !reflect.DeepEqual(fresh.res, clone.res) {
		t.Errorf("%s: vm.Result differs:\nfresh %+v\nclone %+v", what, fresh.res, clone.res)
	}
	if fresh.err != clone.err {
		t.Errorf("%s: error differs: fresh %q, clone %q", what, fresh.err, clone.err)
	}
	if !reflect.DeepEqual(fresh.traps, clone.traps) {
		t.Errorf("%s: trap stream differs: fresh %v, clone %v", what, fresh.traps, clone.traps)
	}
	if !reflect.DeepEqual(fresh.flight, clone.flight) {
		t.Errorf("%s: flight-recorder events differ", what)
	}
	if !reflect.DeepEqual(fresh.reg, clone.reg) {
		t.Errorf("%s: registry snapshot differs:\nfresh %+v\nclone %+v", what, fresh.reg, clone.reg)
	}
	if !reflect.DeepEqual(fresh.events, clone.events) {
		t.Errorf("%s: emitted events differ:\nfresh %v\nclone %v", what, fresh.events, clone.events)
	}
}

// TestTemplateCloneEqualsFresh is the clone == fresh differential: for the
// fleet's request handler, the webserver and the twelve SPEC-like programs,
// under no defense, full R2C, the naive-BTDP-array ablation and a config
// without BTDPs, a process cloned from a template must be observably
// identical to a fresh NewProcessFromImage — and so must a second clone,
// which proves the first run left the template untouched and that a clone
// reusing a released one's storage starts clean. The attack
// victim, with its dispatch pointer overwritten through Space.Write64 (a
// BTDP under the BTDP configs, an unmapped address otherwise), covers the
// trap and fault paths.
func TestTemplateCloneEqualsFresh(t *testing.T) {
	naive := defense.R2CFull()
	naive.Name = "r2c-naive-btdp"
	naive.BTDPNaiveDataArray = true
	configs := []defense.Config{defense.Off(), defense.R2CFull(), naive, defense.BTRAPushOnly()}

	type program struct {
		name    string
		mod     *tir.Module
		corrupt func(*image.Image) func(*rt.Process)
	}
	progs := []program{
		{name: "nginx-request", mod: workload.NginxRequest()},
		{name: "nginx", mod: workload.Nginx(400)},
	}
	// Under the race detector the SPEC programs' runs exceed the budget;
	// the clone path itself is the same for every program.
	if !raceEnabled {
		for _, b := range workload.SPEC() {
			progs = append(progs, program{name: b.Name, mod: b.Build(64)})
		}
	}
	progs = append(progs, program{name: "victim-hijack", mod: attack.Victim(), corrupt: func(img *image.Image) func(*rt.Process) {
		admin := img.DataSyms[attack.SymAdminPtr].Addr
		return func(p *rt.Process) {
			target := uint64(0x10)
			if len(p.BTDPValues) > 0 {
				target = p.BTDPValues[0]
			}
			if err := p.Space.Write64(admin, target); err != nil {
				t.Fatalf("corrupt admin_ptr: %v", err)
			}
		}
	}})

	for _, pr := range progs {
		for _, cfg := range configs {
			what := fmt.Sprintf("%s/%s", pr.name, cfg.Name)
			const seed = 11
			img, err := sim.BuildImage(pr.mod, cfg, seed)
			if err != nil {
				t.Fatalf("%s: build: %v", what, err)
			}
			var corrupt func(*rt.Process)
			if pr.corrupt != nil {
				corrupt = pr.corrupt(img)
			}
			fobs := newInstanceObserver()
			fp, err := sim.NewProcessFromImage(img, seed, fobs)
			if err != nil {
				t.Fatalf("%s: fresh load: %v", what, err)
			}
			fresh := runInstance(t, fp, fobs, corrupt)

			tmpl, err := sim.NewTemplateFromImage(img, seed)
			if err != nil {
				t.Fatalf("%s: template: %v", what, err)
			}
			// The second clone reuses the released first one's storage.
			for i := 0; i < 2; i++ {
				cobs := newInstanceObserver()
				cp := tmpl.Clone(cobs)
				clone := runInstance(t, cp, cobs, corrupt)
				cp.Release()
				diffInstances(t, fmt.Sprintf("%s clone %d", what, i), fresh, clone)
			}
			if pr.corrupt != nil && fresh.res.Fault == nil {
				t.Errorf("%s: the corrupted dispatch did not stop the run: %+v", what, fresh.res)
			}
		}
	}
}

// TestTemplateCloneIsolation: writes through one clone — by its VM and by
// Space.Write64 — reach neither the template nor a sibling clone, nor a
// later clone that reuses the writer's released storage.
func TestTemplateCloneIsolation(t *testing.T) {
	img, err := sim.BuildImage(workload.NginxRequest(), defense.R2CFull(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := sim.NewTemplateFromImage(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	page := img.DataSyms["page64"].Addr
	sibling := tmpl.Clone(nil)
	want, err := sibling.Space.Read64(page)
	if err != nil {
		t.Fatal(err)
	}
	// The stack word the entry frame writes first: the VM writes it through
	// its TLB slab, which must have been made private.
	stackWord := sibling.InitialRSP - 8
	wantStack, err := sibling.Space.Read64(stackWord)
	if err != nil {
		t.Fatal(err)
	}

	a := tmpl.Clone(nil)
	if _, err := sim.ExecProcess(a, vm.EPYCRome(), nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Space.Read64(stackWord); got == wantStack {
		t.Fatalf("the run never wrote the stack word %#x; pick another probe", stackWord)
	}
	if err := a.Space.Write64(page, 0xbadc0ffee); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Heap.Alloc(4096); err != nil {
		t.Fatal(err)
	}

	fresh := tmpl.Clone(nil)
	a.Release()
	reused := tmpl.Clone(nil)
	if reused.Space != a.Space {
		t.Fatal("the clone after Release did not reuse the released storage")
	}
	for name, p := range map[string]*rt.Process{"sibling": sibling, "new clone": fresh, "reusing clone": reused} {
		if got, _ := p.Space.Read64(page); got != want {
			t.Errorf("%s sees the other clone's Space.Write64: %#x, want %#x", name, got, want)
		}
		if got, _ := p.Space.Read64(stackWord); got != wantStack {
			t.Errorf("%s sees the other clone's VM stack write: %#x, want %#x", name, got, wantStack)
		}
		// The bottom stack page is untouched in the template. Writing a
		// zero word there gives the clone a page buffer of its own — for the
		// reusing clone, one of a's recycled ones — which must read all zero.
		if err := p.Space.Write64(img.StackLow+8, 0); err != nil {
			t.Fatal(err)
		}
		low := make([]byte, mem.PageSize)
		if err := p.Space.Read(img.StackLow, low); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(low, make([]byte, mem.PageSize)) {
			t.Errorf("%s: a page first written by the clone holds stale bytes", name)
		}
		if p.Heap.Stats() != sibling.Heap.Stats() {
			t.Errorf("%s sees the other clone's heap allocation: %+v", name, p.Heap.Stats())
		}
	}
}
