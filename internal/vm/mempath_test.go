package vm_test

import (
	"errors"
	"reflect"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// Directed tests of the VM's data-memory path: TLB hits, misses, permission
// faults on resident pages, page-straddling accesses, guard pages, unmapping
// under the TLB and copy-on-write clones. Every case runs on both dispatch
// loops and requires identical Results and register files.

// ptrModule builds a program that loads an address from the global "ptr"
// (which the test fills in after loading) and hands it to body.
func ptrModule(body func(f *tir.FuncBuilder, a tir.Reg)) *tir.Module {
	mb := tir.NewModule("mempath")
	mb.AddGlobal("ptr", 8)
	main := mb.NewFunc("main", 0)
	body(main, main.Load(main.AddrGlobal("ptr"), 0))
	main.RetVoid()
	mb.SetEntry("main")
	return mb.MustBuild()
}

// loadIncStore loads the word at a, outputs it, stores it back plus one and
// outputs the reloaded word.
func loadIncStore(f *tir.FuncBuilder, a tir.Reg) {
	v := f.Load(a, 0)
	f.Output(v)
	f.Store(a, 0, f.Bin(tir.OpAdd, v, f.Const(1)))
	f.Output(f.Load(a, 0))
}

// memCase loads m under cfg, lets setup point "ptr" somewhere (and shape
// the address space), and returns a machine ready to run.
func memCase(t *testing.T, m *tir.Module, cfg defense.Config, legacy bool, setup func(p *rt.Process) uint64) *vm.Machine {
	t.Helper()
	proc, err := sim.Build(m, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Space.Write64(proc.Img.DataSyms["ptr"].Addr, setup(proc)); err != nil {
		t.Fatal(err)
	}
	mach := vm.New(proc, vm.EPYCRome())
	mach.Legacy = legacy
	return mach
}

// runBothLoops runs the case to its end on the legacy and the fast loop,
// requires identical Results and register files, and returns the fast run.
func runBothLoops(t *testing.T, mk func(legacy bool) *vm.Machine) (*vm.Result, *vm.Machine) {
	t.Helper()
	lm, fm := mk(true), mk(false)
	lr, le := lm.Run(sim.DefaultBudget)
	fr, fe := fm.Run(sim.DefaultBudget)
	if errString(le) != errString(fe) {
		t.Fatalf("errors diverge: legacy %v, fast %v", le, fe)
	}
	if !reflect.DeepEqual(lr, fr) {
		t.Fatalf("results diverge\nlegacy: %+v\nfast:   %+v", lr, fr)
	}
	if lm.CPU != fm.CPU {
		t.Fatalf("register files diverge\nlegacy: %+v\nfast:   %+v", lm.CPU, fm.CPU)
	}
	return fr, fm
}

// lastStep reruns the case on a fresh machine of each loop, pausing just
// before the instruction that ended the run, then executes that one
// instruction. It returns the result copied at the pause, the final result
// and the register files around the step; the final result must equal the
// uninterrupted run's.
func lastStep(t *testing.T, mk func(legacy bool) *vm.Machine, full *vm.Result) (before, after vm.Result, cpuBefore, cpuAfter vm.CPU) {
	t.Helper()
	for _, legacy := range []bool{true, false} {
		mach := mk(legacy)
		res, err := mach.Run(full.Instructions - 1)
		if !errors.Is(err, vm.ErrInstructionBudget) {
			t.Fatalf("legacy=%v: did not pause before the last instruction: %v", legacy, err)
		}
		before, cpuBefore = *res, mach.CPU
		res, err = mach.Run(1)
		if err != nil {
			t.Fatalf("legacy=%v: last step: %v", legacy, err)
		}
		if !reflect.DeepEqual(res, full) {
			t.Fatalf("legacy=%v: stepped run differs from the full run\nstepped: %+v\nfull:    %+v", legacy, res, full)
		}
		after, cpuAfter = *res, mach.CPU
	}
	return before, after, cpuBefore, cpuAfter
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func wantFault(t *testing.T, res *vm.Result, want mem.Fault) {
	t.Helper()
	if res.Fault == nil || *res.Fault != want {
		t.Fatalf("fault = %+v, want %+v", res.Fault, want)
	}
}

var memConfigs = []defense.Config{defense.Off(), defense.R2CFull()}

// TestStraddlingAccessAcrossMappedPages loads, stores and reloads a word
// whose bytes span two mapped pages. Such an access goes through the
// address space and counts as neither a TLB hit nor a miss.
func TestStraddlingAccessAcrossMappedPages(t *testing.T) {
	m := ptrModule(loadIncStore)
	const word = 0x1122334455667788
	for _, cfg := range memConfigs {
		var addr uint64
		mk := func(off uint64) func(bool) *vm.Machine {
			return func(legacy bool) *vm.Machine {
				return memCase(t, m, cfg, legacy, func(p *rt.Process) uint64 {
					addr = p.Img.StackLow + off
					if err := p.Space.Write64(addr, word); err != nil {
						t.Fatal(err)
					}
					return addr
				})
			}
		}
		res, mach := runBothLoops(t, mk(mem.PageSize-4))
		if !res.Halted || res.Fault != nil {
			t.Fatalf("%s: run did not halt cleanly: %+v", cfg.Name, res)
		}
		if want := []uint64{word, word + 1}; !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("%s: output %#x, want %#x", cfg.Name, res.Output, want)
		}
		if v, _ := mach.Proc.Space.Read64(addr); v != word+1 {
			t.Fatalf("%s: memory holds %#x after the straddling store, want %#x", cfg.Name, v, word+1)
		}
		// The same program on an in-page word makes three more accesses
		// through the TLB; every other access is the same.
		aligned, _ := runBothLoops(t, mk(8))
		if got, want := res.TLBHits+res.TLBMisses, aligned.TLBHits+aligned.TLBMisses-3; got != want {
			t.Fatalf("%s: straddling run made %d TLB accesses, want %d", cfg.Name, got, want)
		}
	}
}

// TestStraddlingLoadIntoUnmappedPage faults at the start of the unmapped
// second page and leaves every register, the destination included, as it
// was.
func TestStraddlingLoadIntoUnmappedPage(t *testing.T) {
	m := ptrModule(loadIncStore)
	for _, cfg := range memConfigs {
		var boundary uint64
		mk := func(legacy bool) *vm.Machine {
			return memCase(t, m, cfg, legacy, func(p *rt.Process) uint64 {
				boundary = p.Img.StackLow + mem.PageSize
				if err := p.Space.Unmap(boundary, mem.PageSize); err != nil {
					t.Fatal(err)
				}
				return boundary - 4
			})
		}
		res, _ := runBothLoops(t, mk)
		wantFault(t, res, mem.Fault{Addr: boundary, Access: mem.AccessRead, Unmapped: true})
		before, after, cpuBefore, cpuAfter := lastStep(t, mk, res)
		if cpuAfter.R != cpuBefore.R {
			t.Fatalf("%s: the faulting load changed registers\nbefore: %#x\nafter:  %#x", cfg.Name, cpuBefore.R, cpuAfter.R)
		}
		if after.TLBHits != before.TLBHits || after.TLBMisses != before.TLBMisses {
			t.Fatalf("%s: the straddling load counted TLB hits %d->%d, misses %d->%d", cfg.Name, before.TLBHits, after.TLBHits, before.TLBMisses, after.TLBMisses)
		}
	}
}

// TestPermissionFaultOnResidentPageCountsHit makes an allowed access that
// brings a page into the TLB, then an access the page's permission forbids:
// a read-only page written, and a write-only page read. The fault reports
// the page's permission and counts as a TLB hit, not a miss.
func TestPermissionFaultOnResidentPageCountsHit(t *testing.T) {
	cases := []struct {
		name   string
		perm   mem.Perm
		access mem.AccessKind
		body   func(f *tir.FuncBuilder, a tir.Reg)
	}{
		{"read-then-write", mem.PermRead, mem.AccessWrite, func(f *tir.FuncBuilder, a tir.Reg) {
			v := f.Load(a, 0)
			f.Store(a, 8, v)
			f.Output(v)
		}},
		{"write-then-read", mem.PermWrite, mem.AccessRead, func(f *tir.FuncBuilder, a tir.Reg) {
			f.Store(a, 0, f.Const(5))
			f.Output(f.Load(a, 8))
		}},
	}
	for _, tc := range cases {
		m := ptrModule(tc.body)
		for _, cfg := range memConfigs {
			var page uint64
			mk := func(legacy bool) *vm.Machine {
				return memCase(t, m, cfg, legacy, func(p *rt.Process) uint64 {
					page = p.Img.StackLow
					if err := p.Space.Protect(page, mem.PageSize, tc.perm); err != nil {
						t.Fatal(err)
					}
					return page
				})
			}
			res, _ := runBothLoops(t, mk)
			wantFault(t, res, mem.Fault{Addr: page + 8, Access: tc.access, Perm: tc.perm})
			before, after, _, _ := lastStep(t, mk, res)
			if after.TLBHits != before.TLBHits+1 || after.TLBMisses != before.TLBMisses {
				t.Fatalf("%s/%s: faulting access counted hits %d->%d, misses %d->%d; want one hit",
					tc.name, cfg.Name, before.TLBHits, after.TLBHits, before.TLBMisses, after.TLBMisses)
			}
		}
	}
}

// TestGuardPageReadTraps dereferences a BTDP guard page: the read faults on
// the inaccessible page and detonates the booby trap.
func TestGuardPageReadTraps(t *testing.T) {
	m := ptrModule(loadIncStore)
	var guard uint64
	mk := func(legacy bool) *vm.Machine {
		return memCase(t, m, defense.R2CFull(), legacy, func(p *rt.Process) uint64 {
			if len(p.GuardPages) == 0 {
				t.Fatal("no guard pages under full R2C")
			}
			guard = p.GuardPages[0] + 16
			return guard
		})
	}
	res, _ := runBothLoops(t, mk)
	wantFault(t, res, mem.Fault{Addr: guard, Access: mem.AccessRead, Perm: mem.PermNone})
	if res.Trap == nil || res.Trap.Kind != rt.TrapBTDP || res.Trap.Addr != guard {
		t.Fatalf("trap = %+v, want a BTDP trap at %#x", res.Trap, guard)
	}
}

// TestFreedPageIsNotServedFromTLB touches a heap chunk, frees it — which
// unmaps its page while the TLB holds it — and reads it again: the read must
// fault, not hit the stale entry.
func TestFreedPageIsNotServedFromTLB(t *testing.T) {
	mb := tir.NewModule("use-after-free")
	main := mb.NewFunc("main", 0)
	p := main.Alloc(main.Const(64))
	main.Store(p, 0, main.Const(7))
	main.Output(main.Load(p, 0))
	main.Output(p)
	main.Free(p)
	main.Output(main.Load(p, 0))
	main.RetVoid()
	mb.SetEntry("main")
	m := mb.MustBuild()
	for _, cfg := range memConfigs {
		res, _ := runBothLoops(t, func(legacy bool) *vm.Machine {
			proc, err := sim.Build(m, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			mach := vm.New(proc, vm.EPYCRome())
			mach.Legacy = legacy
			return mach
		})
		if len(res.Output) != 2 || res.Output[0] != 7 {
			t.Fatalf("%s: output %v, want [7 <chunk>] before the fault", cfg.Name, res.Output)
		}
		wantFault(t, res, mem.Fault{Addr: res.Output[1], Access: mem.AccessRead, Unmapped: true})
	}
}

// TestVMWriteToCloneLeavesTemplateAndSibling stores through the VM into a
// template clone's data page. The template (seen through a later clone) and
// a sibling clone made before the write keep the original word.
func TestVMWriteToCloneLeavesTemplateAndSibling(t *testing.T) {
	mb := tir.NewModule("clone-write")
	mb.AddGlobal("cell", 8, 41)
	main := mb.NewFunc("main", 0)
	cell := main.AddrGlobal("cell")
	main.Output(main.Load(cell, 0))
	main.Store(cell, 0, main.Const(99))
	main.Output(main.Load(cell, 0))
	main.RetVoid()
	mb.SetEntry("main")
	m := mb.MustBuild()
	for _, cfg := range memConfigs {
		img, err := sim.BuildImage(m, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := sim.NewTemplateFromImage(img, 3)
		if err != nil {
			t.Fatal(err)
		}
		addr := img.DataSyms["cell"].Addr
		sibling := tmpl.Clone(nil)
		clones := map[bool]*rt.Process{}
		res, _ := runBothLoops(t, func(legacy bool) *vm.Machine {
			clones[legacy] = tmpl.Clone(nil)
			mach := vm.New(clones[legacy], vm.EPYCRome())
			mach.Legacy = legacy
			return mach
		})
		if want := []uint64{41, 99}; !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("%s: output %v, want %v", cfg.Name, res.Output, want)
		}
		for _, c := range []struct {
			name string
			p    *rt.Process
			want uint64
		}{
			{"legacy-run clone", clones[true], 99},
			{"fast-run clone", clones[false], 99},
			{"sibling", sibling, 41},
			{"later clone", tmpl.Clone(nil), 41},
		} {
			if v, err := c.p.Space.Read64(addr); err != nil || v != c.want {
				t.Fatalf("%s: %s reads %d (%v), want %d", cfg.Name, c.name, v, err, c.want)
			}
		}
	}
}
