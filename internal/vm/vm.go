package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"r2c/internal/image"
	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
)

// ForceLegacyDispatch, when set, makes newly created Machines execute on the
// reference per-instruction interpreter instead of the predecoded fast path.
// The differential tests flip it to prove the two paths are observationally
// identical; it is not a performance knob.
var ForceLegacyDispatch atomic.Bool

// ErrInstructionBudget is returned when execution exceeds the step budget.
var ErrInstructionBudget = errors.New("vm: instruction budget exhausted")

// ErrFuelExhausted is returned by RunCtx when the caller's total fuel
// allowance runs out — the typed signal a runaway program (an infinite loop
// in lowered code) hands to the execution engine's watchdog, distinct from
// the incremental pause ErrInstructionBudget models.
var ErrFuelExhausted = errors.New("vm: fuel limit exhausted")

// CPU is the architectural register state.
type CPU struct {
	PC uint64
	R  [isa.NumRegs]uint64
	V  [16][8]uint64 // 256/512-bit vector registers as word lanes
	// DirtyUpper models the SSE/AVX transition state vzeroupper clears.
	DirtyUpper bool
}

// Result summarizes one execution.
type Result struct {
	// Cycles is the modeled cycle count; Seconds converts via the profile.
	Cycles       float64
	Instructions uint64
	// Calls counts executed call instructions — the Table 2 metric. Tail
	// calls are jumps and are not counted, matching the paper's
	// methodology (Section 7.1).
	Calls        uint64
	ICacheMisses uint64
	ICacheRefs   uint64

	// ICacheStallCycles is the share of Cycles spent on L1i miss penalties
	// (the paper's i-cache-pressure attribution, Section 7.1).
	ICacheStallCycles float64
	// TLBHits/TLBMisses count the VM's data-TLB slab cache behaviour.
	TLBHits   uint64
	TLBMisses uint64
	// ClassInstr/ClassCycles attribute executed instructions and modeled
	// cycles to instruction classes (indexed by isa.Kind).
	ClassInstr  [32]uint64
	ClassCycles [32]float64

	Halted     bool
	ExitStatus uint64
	// Fault is set when execution stopped on a memory fault.
	Fault *mem.Fault
	// Trap is set when a booby trap detonated (possibly alongside Fault
	// for BTDP guard-page hits).
	Trap *rt.TrapEvent

	// MaxRSSBytes is the peak resident set (the maxrss methodology of
	// Section 6.2.5); RSSSamples holds periodic samples (the monitoring-
	// process methodology).
	MaxRSSBytes uint64
	RSSSamples  []uint64

	Output []uint64
}

// Seconds converts modeled cycles to wall-clock time on profile p.
func (r *Result) Seconds(p *Profile) float64 { return r.Cycles / (p.GHz * 1e9) }

// tlbEntry is one slot of the modeled 8-entry data TLB. rtag and wtag hold
// the cached page number when the page's permission allows a read or a
// write, and ^0 when it does not (or the slot is empty), so an allowed hit
// is one compare. page is the page number held, ^0 when empty: the cold
// path uses it to tell a permission fault on a resident page (a hit) from a
// miss.
type tlbEntry struct {
	rtag, wtag uint64
	data       *[mem.PageSize]byte
	page       uint64
	perm       mem.Perm
}

// emptyTLBEntry is a slot that holds no page and matches no tag.
var emptyTLBEntry = tlbEntry{rtag: ^uint64(0), wtag: ^uint64(0), page: ^uint64(0)}

// Machine executes a loaded process under a machine profile.
type Machine struct {
	Proc *rt.Process
	Img  *image.Image
	Prof *Profile
	CPU  CPU

	// SampleEvery, when non-zero, records an RSS sample every N
	// instructions (the separate-monitoring-process methodology).
	SampleEvery uint64
	// FlushICacheEvery, when non-zero, empties the instruction cache every
	// N instructions — modeling context-switch pollution when the server
	// shares cores with the load generator (Section 6.2.4). Programs with
	// larger protected text pay a larger re-warm cost.
	FlushICacheEvery uint64

	// Legacy pins this machine to the reference per-instruction
	// interpreter. The fast path delegates to it anyway for mid-block
	// resumes and sampling boundaries, so both paths stay live.
	Legacy bool

	ic           *icache
	lastLine     uint64
	lastExecPage uint64
	tlb          [8]tlbEntry

	// shadow is the backward-edge CFI shadow stack (Section 8.2), active
	// when the defense configuration enables it. It lives outside the
	// simulated address space, like a hardware shadow stack.
	shadow []uint64

	// rstack is the fast path's return predictor: each executed call pushes
	// (RA value, RA dense index); a return whose popped RA matches the
	// predicted value reuses the index without an address-map lookup. Purely
	// an optimization — a mismatched or stale entry just falls back to the
	// map, and a matched entry is always correct because the index was
	// derived from the same address at predecode time. Not architectural
	// state: the legacy interpreter ignores it.
	rstack []retPred

	// profiler, when enabled, attributes cycles to functions. It observes
	// only control transfers, never the architectural state, so a profiled
	// run is cycle-identical to an unprofiled one.
	profiler *FuncProfiler

	// rec mirrors Proc.Flight: the control-flow flight recorder both
	// dispatch loops feed at block boundaries. Nil — the common case —
	// keeps the hooks to a single pointer test; recording never touches
	// architectural state, so an instrumented run is cycle-identical to an
	// uninstrumented one.
	rec *telemetry.FlightRecorder

	res Result
	pub published
}

// retPred is one return-predictor entry (see Machine.rstack).
type retPred struct {
	addr uint64
	idx  int32
}

// published remembers what PublishMetrics already exported, so repeated
// publishes (a machine resumed across Run calls) add only deltas.
type published struct {
	instructions uint64
	calls        uint64
	cycles       float64
	stallCycles  float64
	icMisses     uint64
	icRefs       uint64
	tlbHits      uint64
	tlbMisses    uint64
	rssSamples   int
	classInstr   [32]uint64
	classCycles  [32]float64
}

// New prepares a machine at the image entry point.
func New(proc *rt.Process, prof *Profile) *Machine {
	m := &Machine{
		Proc: proc, Img: proc.Img, Prof: prof,
		ic:       newICache(prof),
		lastLine: ^uint64(0), lastExecPage: ^uint64(0),
		rec: proc.Flight,
	}
	m.CPU.PC = proc.Img.Entry
	m.CPU.R[isa.RSP] = proc.InitialRSP
	m.flushTLB()
	m.Legacy = ForceLegacyDispatch.Load()
	return m
}

// EnableProfiler turns on per-function cycle attribution and returns the
// profiler. Call before the first Run; the profiler survives budget pauses
// and accumulates across resumed Run calls.
func (m *Machine) EnableProfiler() *FuncProfiler {
	if m.profiler == nil {
		entry := ""
		if f := m.Img.FuncAt(m.CPU.PC); f != nil {
			entry = f.F.Name
		}
		m.profiler = newFuncProfiler(entry, m.res.Cycles)
	}
	return m.profiler
}

// Profiler returns the enabled profiler, or nil.
func (m *Machine) Profiler() *FuncProfiler { return m.profiler }

// charge adds cost to the modeled cycle count and attributes it to the
// instruction class. Small enough to inline into the dispatch loop.
func (m *Machine) charge(k isa.Kind, cost float64) {
	m.res.Cycles += cost
	m.res.ClassCycles[k] += cost
}

// flushTLB empties every data-TLB slot. Both loops call it after each
// system call, which may unmap or reprotect pages.
func (m *Machine) flushTLB() {
	for i := range m.tlb {
		m.tlb[i] = emptyTLBEntry
	}
}

// loadHit is the data-TLB hit path of a load: when addr's page is cached
// with read permission and the word does not straddle into the next page,
// it counts a hit and returns the little-endian word at addr. One tag
// compare and one 8-byte load, small enough to inline into the dispatch
// loop; on false the caller takes read64Cold, which handles misses,
// faults and straddles.
func (m *Machine) loadHit(addr uint64) (uint64, bool) {
	pg, off := addr>>mem.PageShift, addr&mem.PageMask
	if e := &m.tlb[pg&7]; e.rtag == pg && off <= mem.PageSize-8 {
		m.res.TLBHits++
		return binary.LittleEndian.Uint64(e.data[off:]), true
	}
	return 0, false
}

// storeHit is the store twin of loadHit: on a hit it stores v
// little-endian at addr; on false the caller takes write64Cold.
func (m *Machine) storeHit(addr, v uint64) bool {
	pg, off := addr>>mem.PageShift, addr&mem.PageMask
	if e := &m.tlb[pg&7]; e.wtag == pg && off <= mem.PageSize-8 {
		m.res.TLBHits++
		binary.LittleEndian.PutUint64(e.data[off:], v)
		return true
	}
	return false
}

// read64 loads the little-endian word at addr through the data TLB.
func (m *Machine) read64(addr uint64) (uint64, *mem.Fault) {
	if v, ok := m.loadHit(addr); ok {
		return v, nil
	}
	return m.read64Cold(addr)
}

// write64 stores v little-endian at addr through the data TLB.
func (m *Machine) write64(addr, v uint64) *mem.Fault {
	if m.storeHit(addr, v) {
		return nil
	}
	return m.write64Cold(addr, v)
}

// read64Cold is a load off the TLB hit path. A page-straddling load goes
// through the address space and counts as neither TLB hit nor miss; a load
// from a resident page whose permission forbids it faults and counts as a
// hit.
//
//go:noinline
func (m *Machine) read64Cold(addr uint64) (uint64, *mem.Fault) {
	off := addr & mem.PageMask
	if off > mem.PageSize-8 {
		v, err := m.Proc.Space.Read64(addr)
		if err != nil {
			var f *mem.Fault
			errors.As(err, &f)
			return 0, f
		}
		return v, nil
	}
	e := m.lookup(addr)
	if e == nil {
		return 0, &mem.Fault{Addr: addr, Access: mem.AccessRead, Unmapped: true}
	}
	if e.perm&mem.PermRead == 0 {
		return 0, &mem.Fault{Addr: addr, Access: mem.AccessRead, Perm: e.perm}
	}
	return binary.LittleEndian.Uint64(e.data[off:]), nil
}

// write64Cold is a store off the TLB hit path; same contract as read64Cold.
//
//go:noinline
func (m *Machine) write64Cold(addr, v uint64) *mem.Fault {
	off := addr & mem.PageMask
	if off > mem.PageSize-8 {
		if err := m.Proc.Space.Write64(addr, v); err != nil {
			var f *mem.Fault
			errors.As(err, &f)
			return f
		}
		return nil
	}
	e := m.lookup(addr)
	if e == nil {
		return &mem.Fault{Addr: addr, Access: mem.AccessWrite, Unmapped: true}
	}
	if e.perm&mem.PermWrite == 0 {
		return &mem.Fault{Addr: addr, Access: mem.AccessWrite, Perm: e.perm}
	}
	binary.LittleEndian.PutUint64(e.data[off:], v)
	return nil
}

// lookup returns the TLB entry for addr's page: a hit when the page is
// resident, otherwise a miss that refills the entry from the address space.
// It returns nil, leaving the entry as it was, when the page is unmapped.
func (m *Machine) lookup(addr uint64) *tlbEntry {
	pg := addr >> mem.PageShift
	e := &m.tlb[pg&7]
	if e.page == pg {
		m.res.TLBHits++
		return e
	}
	m.res.TLBMisses++
	data, perm, ok := m.Proc.Space.Slab(addr)
	if !ok {
		return nil
	}
	*e = emptyTLBEntry
	e.data, e.page, e.perm = data, pg, perm
	if perm&mem.PermRead != 0 {
		e.rtag = pg
	}
	if perm&mem.PermWrite != 0 {
		e.wtag = pg
	}
	return e
}

// stopFault finalizes execution on a memory fault, classifying booby traps.
func (m *Machine) stopFault(pc uint64, f *mem.Fault) {
	m.res.Fault = f
	m.Proc.NoteFault(pc, f)
	if kind := m.Proc.ClassifyFault(pc, f); kind != rt.TrapNone {
		ev := rt.TrapEvent{Kind: kind, PC: pc, Addr: f.Addr}
		m.Proc.RecordTrap(ev)
		m.res.Trap = &ev
	}
}

// Run executes until halt, fault, booby trap, or until maxInstr further
// instructions have executed (the budget is incremental, so a paused
// machine can be resumed with another Run call — how the attack framework
// models Malicious Thread Blocking). The returned Result is valid in all
// cases and accumulates across calls; err is non-nil only for
// simulator-level problems (budget exhaustion, malformed images, division
// by zero, heap exhaustion).
//
// Execution normally runs on the predecoded fast path (runFast, fast.go);
// runLegacy is the reference per-instruction interpreter the fast path
// must match observable-state-for-observable-state, and to which it
// delegates the boundary cases (mid-block entry, budget or sampling
// boundaries inside a block).
func (m *Machine) Run(maxInstr uint64) (*Result, error) {
	if code := m.Img.Code; code != nil && !m.Legacy {
		return m.runFast(code, maxInstr)
	}
	return m.runLegacy(maxInstr)
}

// finish syncs derived result fields on any stop (halt, fault, trap, pause
// or error) and returns the accumulated result.
func (m *Machine) finish() *Result {
	m.res.ICacheMisses = m.ic.misses
	m.res.ICacheRefs = m.ic.accesses
	m.res.MaxRSSBytes = m.Proc.Space.MaxRSSBytes()
	m.res.Output = m.Proc.Output
	m.res.ExitStatus = m.Proc.ExitStatus
	if m.profiler != nil {
		m.profiler.sync(m.res.Cycles)
	}
	return &m.res
}

func (m *Machine) runLegacy(maxInstr uint64) (*Result, error) {
	img, prof, cpu := m.Img, m.Prof, &m.CPU
	limit := m.res.Instructions + maxInstr
	knobs := m.SampleEvery | m.FlushICacheEvery

	curF := img.FuncAt(cpu.PC)
	if curF == nil {
		return &m.res, fmt.Errorf("vm: entry %#x not in text", cpu.PC)
	}
	curIdx := curF.InstrIndexAt(cpu.PC)
	if curIdx < 0 {
		return &m.res, fmt.Errorf("vm: entry %#x not an instruction", cpu.PC)
	}

	// jump transfers control to an absolute address, updating the current
	// function and index. Returns false (and stops) on wild transfers.
	jump := func(target uint64) bool {
		if target >= curF.Start && target < curF.End {
			if i := curF.InstrIndexAt(target); i >= 0 {
				curIdx = i
				return true
			}
		} else if pf := img.FuncAt(target); pf != nil {
			if i := pf.InstrIndexAt(target); i >= 0 {
				curF, curIdx = pf, i
				return true
			}
		}
		m.stopFault(cpu.PC, &mem.Fault{Addr: target, Access: mem.AccessExec, Unmapped: true})
		return false
	}

	finish := m.finish

	for {
		if m.res.Instructions >= limit {
			// Pause with PC at the *next* instruction so a later Run call
			// resumes exactly where this one stopped.
			cpu.PC = curF.InstrAddrs[curIdx]
			return finish(), ErrInstructionBudget
		}
		in := &curF.F.Instrs[curIdx]
		addr := curF.InstrAddrs[curIdx]
		cpu.PC = addr

		// Fetch permission, checked per page transition.
		if pg := addr >> mem.PageShift; pg != m.lastExecPage {
			if err := m.Proc.Space.CheckExec(addr); err != nil {
				var f *mem.Fault
				errors.As(err, &f)
				m.stopFault(addr, f)
				return finish(), nil
			}
			m.lastExecPage = pg
		}

		// Instruction cache, modeled per line transition.
		if line := addr >> 6; line != m.lastLine {
			if m.ic.access(addr) {
				m.res.Cycles += prof.ICacheMissPenalty
				m.res.ICacheStallCycles += prof.ICacheMissPenalty
			}
			m.lastLine = line
		}

		m.res.Instructions++
		m.res.ClassInstr[in.Kind]++
		if knobs != 0 {
			if m.SampleEvery > 0 && m.res.Instructions%m.SampleEvery == 0 {
				m.res.RSSSamples = append(m.res.RSSSamples, m.Proc.Space.RSSBytes())
			}
			if m.FlushICacheEvery > 0 && m.res.Instructions%m.FlushICacheEvery == 0 {
				m.ic.flush()
				m.lastLine = ^uint64(0)
			}
		}
		cost := prof.Cost[in.Kind]
		next := curIdx + 1

		switch in.Kind {
		case isa.KMovImm:
			cpu.R[in.Dst] = in.Imm
		case isa.KMovReg:
			cpu.R[in.Dst] = cpu.R[in.Src]
		case isa.KLoad:
			a := in.Target + uint64(in.Disp)
			if in.Base != isa.NoGPR {
				a = cpu.R[in.Base] + uint64(in.Disp)
			}
			if m.rec != nil && m.rec.NearGuard(a) {
				m.rec.Record(telemetry.FlightLoad, addr, a, m.res.Instructions)
			}
			v, f := m.read64(a)
			if f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			cpu.R[in.Dst] = v
		case isa.KStore:
			if f := m.write64(cpu.R[in.Base]+uint64(in.Disp), cpu.R[in.Src]); f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
		case isa.KLea:
			cpu.R[in.Dst] = cpu.R[in.Base] + uint64(in.Disp)
		case isa.KAlu, isa.KAluImm:
			b := in.Imm
			if in.Kind == isa.KAlu {
				b = cpu.R[in.Src]
			}
			v, c, err := aluExec(in.Alu, cpu.R[in.Dst], b, prof, cost)
			if err != nil {
				return finish(), fmt.Errorf("vm: at %#x: %w", addr, err)
			}
			cpu.R[in.Dst] = v
			cost = c
		case isa.KSet:
			cpu.R[in.Dst] = cmpExec(in.Cmp, cpu.R[in.A], cpu.R[in.B])
		case isa.KPush, isa.KPushImm:
			v := in.Imm
			if in.Kind == isa.KPush {
				v = cpu.R[in.Src]
			}
			cpu.R[isa.RSP] -= 8
			if f := m.write64(cpu.R[isa.RSP], v); f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
		case isa.KPop:
			v, f := m.read64(cpu.R[isa.RSP])
			if f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			cpu.R[in.Dst] = v
			cpu.R[isa.RSP] += 8
		case isa.KCall, isa.KCallInd:
			target := in.Target
			if in.Kind == isa.KCallInd {
				target = cpu.R[in.Src]
			}
			ra := addr + uint64(in.EncodedSize())
			cpu.R[isa.RSP] -= 8
			if f := m.write64(cpu.R[isa.RSP], ra); f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			if m.Proc.Cfg.ShadowStack {
				m.shadow = append(m.shadow, ra)
			}
			m.res.Calls++
			if cpu.DirtyUpper {
				cost += prof.AVXDirtyPenalty
			}
			m.charge(in.Kind, cost)
			if m.rec != nil {
				k := telemetry.FlightCall
				if in.Kind == isa.KCallInd {
					k = telemetry.FlightCallInd
				}
				// Recorded before target resolution, so wild transfers —
				// the attack signal — land on the flight record too.
				m.rec.Record(k, addr, target, m.res.Instructions)
			}
			if !jump(target) {
				return finish(), nil
			}
			if m.profiler != nil {
				m.profiler.onCall(curF.F.Name, m.res.Cycles)
			}
			continue
		case isa.KRet:
			ra, f := m.read64(cpu.R[isa.RSP])
			if f != nil {
				m.stopFault(addr, f)
				return finish(), nil
			}
			cpu.R[isa.RSP] += 8
			if m.Proc.Cfg.ShadowStack {
				if n := len(m.shadow); n == 0 || m.shadow[n-1] != ra {
					ev := rt.TrapEvent{Kind: rt.TrapShadowStack, PC: addr, Addr: ra}
					m.Proc.RecordTrap(ev)
					m.res.Trap = &ev
					return finish(), nil
				}
				m.shadow = m.shadow[:len(m.shadow)-1]
			}
			if cpu.DirtyUpper {
				cost += prof.AVXDirtyPenalty
			}
			m.charge(in.Kind, cost)
			if m.rec != nil {
				m.rec.Record(telemetry.FlightRet, addr, ra, m.res.Instructions)
			}
			if !jump(ra) {
				return finish(), nil
			}
			if m.profiler != nil {
				m.profiler.onRet(curF.F.Name, m.res.Cycles)
			}
			continue
		case isa.KJmp:
			m.charge(in.Kind, cost)
			if m.rec != nil {
				m.rec.Record(telemetry.FlightJump, addr, in.Target, m.res.Instructions)
			}
			prev := curF
			if !jump(in.Target) {
				return finish(), nil
			}
			if m.profiler != nil && curF != prev {
				m.profiler.onJump(curF.F.Name, m.res.Cycles)
			}
			continue
		case isa.KJz, isa.KJnz:
			taken := (cpu.R[in.Src] == 0) == (in.Kind == isa.KJz)
			if taken {
				m.charge(in.Kind, cost)
				if m.rec != nil {
					m.rec.Record(telemetry.FlightJump, addr, in.Target, m.res.Instructions)
				}
				prev := curF
				if !jump(in.Target) {
					return finish(), nil
				}
				if m.profiler != nil && curF != prev {
					m.profiler.onJump(curF.F.Name, m.res.Cycles)
				}
				continue
			}
		case isa.KNop:
			// fetch cost only
		case isa.KTrap:
			kind := m.Proc.ClassifyFault(addr, nil)
			if kind == rt.TrapNone {
				kind = rt.TrapProlog // a trap in regular code
			}
			ev := rt.TrapEvent{Kind: kind, PC: addr}
			m.Proc.RecordTrap(ev)
			m.res.Trap = &ev
			return finish(), nil
		case isa.KVLoad, isa.KVStore, isa.KVStoreA:
			lanes := int(in.Imm) / 8
			if lanes <= 0 || lanes > 8 {
				return finish(), fmt.Errorf("vm: at %#x: bad vector width %d", addr, in.Imm)
			}
			a := in.Target + uint64(in.Disp)
			if in.Base != isa.NoGPR {
				a = cpu.R[in.Base] + uint64(in.Disp)
			}
			if in.Kind == isa.KVStoreA && a%16 != 0 {
				return finish(), fmt.Errorf("vm: at %#x: misaligned vector store to %#x", addr, a)
			}
			for l := 0; l < lanes; l++ {
				la := a + uint64(l)*8
				if in.Kind == isa.KVLoad {
					v, f := m.read64(la)
					if f != nil {
						m.stopFault(addr, f)
						return finish(), nil
					}
					cpu.V[in.VDst][l] = v
				} else {
					if f := m.write64(la, cpu.V[in.VSrc][l]); f != nil {
						m.stopFault(addr, f)
						return finish(), nil
					}
				}
			}
			if lanes*8 > 16 {
				cpu.DirtyUpper = true
			}
			if lanes > 4 {
				cost *= 1.3 // 512-bit moves are slightly pricier per op
			}
		case isa.KVZeroUpper:
			cpu.DirtyUpper = false
			for i := range cpu.V {
				for l := 2; l < 8; l++ {
					cpu.V[i][l] = 0
				}
			}
		case isa.KSys:
			cost = prof.SysCost
			if err := m.sys(in.Sys); err != nil {
				return finish(), fmt.Errorf("vm: at %#x: %w", addr, err)
			}
			m.flushTLB()
			if m.res.Halted {
				m.charge(in.Kind, cost)
				return finish(), nil
			}
		case isa.KHalt:
			m.res.Halted = true
			m.charge(in.Kind, cost)
			return finish(), nil
		default:
			return finish(), fmt.Errorf("vm: at %#x: unimplemented %v", addr, in.Kind)
		}

		m.charge(in.Kind, cost)
		curIdx = next
		if curIdx >= len(curF.F.Instrs) {
			return finish(), fmt.Errorf("vm: fell off the end of %s", curF.F.Name)
		}
	}
}

func (m *Machine) sys(s isa.Sys) error {
	cpu := &m.CPU
	switch s {
	case isa.SysAlloc:
		a, err := m.Proc.Heap.Alloc(cpu.R[isa.RDI])
		if err != nil {
			return err
		}
		cpu.R[isa.RAX] = a
	case isa.SysFree:
		return m.Proc.Heap.Free(cpu.R[isa.RDI])
	case isa.SysOutput:
		m.Proc.Output = append(m.Proc.Output, cpu.R[isa.RDI])
	case isa.SysExit:
		m.Proc.ExitStatus = cpu.R[isa.RDI]
		m.res.Halted = true
	case isa.SysProtect:
		perm := mem.Perm(cpu.R[isa.RDX])
		return m.Proc.Space.Protect(cpu.R[isa.RDI], cpu.R[isa.RSI], perm)
	default:
		return fmt.Errorf("unknown sys %v", s)
	}
	return nil
}

func aluExec(op isa.AluOp, a, b uint64, prof *Profile, base float64) (uint64, float64, error) {
	switch op {
	case isa.AluAdd:
		return a + b, base, nil
	case isa.AluSub:
		return a - b, base, nil
	case isa.AluMul:
		return a * b, prof.MulCost, nil
	case isa.AluDiv:
		if b == 0 {
			return 0, base, errors.New("division by zero")
		}
		return a / b, prof.DivCost, nil
	case isa.AluRem:
		if b == 0 {
			return 0, base, errors.New("division by zero")
		}
		return a % b, prof.DivCost, nil
	case isa.AluAnd:
		return a & b, base, nil
	case isa.AluOr:
		return a | b, base, nil
	case isa.AluXor:
		return a ^ b, base, nil
	case isa.AluShl:
		return a << (b & 63), base, nil
	case isa.AluShr:
		return a >> (b & 63), base, nil
	}
	return 0, base, fmt.Errorf("unknown alu op %v", op)
}

func cmpExec(op isa.CmpOp, a, b uint64) uint64 {
	var r bool
	switch op {
	case isa.CmpEq:
		r = a == b
	case isa.CmpNeq:
		r = a != b
	case isa.CmpLt:
		r = a < b
	case isa.CmpLeq:
		r = a <= b
	case isa.CmpGt:
		r = a > b
	case isa.CmpGeq:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}
