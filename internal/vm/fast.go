package vm

import (
	"errors"
	"fmt"

	"r2c/internal/isa"
	"r2c/internal/mem"
	"r2c/internal/pcode"
	"r2c/internal/rt"
	"r2c/internal/telemetry"
)

// runFast executes on the predecoded program (image.Code). It must be
// observationally identical to runLegacy: same Result fields bit for bit,
// same fault/trap PCs, same pause/resume points, same error strings.
//
// Structure: the outer loop walks basic blocks. A block whose full extent
// fits inside the remaining budget, is entered at its leader, and crosses no
// RSS-sampling or i-cache-flush boundary is retired on the fast inner loop —
// its architectural instruction and class counts are charged up front from
// the predecoded per-block summary (rolled back exactly if a fault, trap or
// VM error stops execution mid-block), and each op dispatches through a
// dense switch with statically elided fetch checks. Everything else (the
// budget edge, knob boundaries, mid-block entry after a resume) is delegated
// to runLegacy for exactly the instructions up to the boundary, so boundary
// semantics are the reference semantics by construction.
//
// Memory ops run the data-TLB hit path (loadHit/storeHit) inline and call
// out only on a miss, fault or page straddle. That needs this function to
// stay under the Go inliner's big-function threshold (5,000 nodes; past it
// callees get a budget of 20 instead of 80), which is why vector moves and
// the rare ops (traps, system calls, halt) live in fastRare.
// TestMemoryHitPathInlines checks the compiler's inlining report for it.
//
// Cycle accounting (float64) deliberately stays per-op and in program
// order: float addition is not associative, so block-summed charging would
// change Result.Cycles in the low bits. Only the integer counters are
// batched.
func (m *Machine) runFast(code *pcode.Program, maxInstr uint64) (*Result, error) {
	prof, cpu := m.Prof, &m.CPU
	limit := m.res.Instructions + maxInstr

	start := code.IndexOf(cpu.PC)
	if start < 0 {
		if m.Img.FuncAt(cpu.PC) == nil {
			return &m.res, fmt.Errorf("vm: entry %#x not in text", cpu.PC)
		}
		return &m.res, fmt.Errorf("vm: entry %#x not an instruction", cpu.PC)
	}
	idx := int(start)
	ops := code.Ops
	knobs := m.SampleEvery | m.FlushICacheEvery

blocks:
	for {
		op := &ops[idx]
		if op.Exec == pcode.XFellOff {
			// Straight-line execution ran off the function end. The legacy
			// loop reports this right after retiring the last instruction,
			// before any budget pause, with the PC still at it.
			cpu.PC = ops[idx-1].Addr
			return m.finish(), fmt.Errorf("vm: fell off the end of %s", code.Funcs[op.FuncIx].Name)
		}
		blk := &code.Blocks[op.Block]
		end := int(blk.End)
		n := uint64(end - idx)
		var rem uint64
		if m.res.Instructions < limit {
			rem = limit - m.res.Instructions
		}
		// db is the distance (in retired instructions) to the next
		// sampling/flush boundary; those actions must fire at exact
		// instruction counts, so a block crossing one is not batchable.
		db := ^uint64(0)
		if knobs != 0 {
			if s := m.SampleEvery; s > 0 {
				if d := s - m.res.Instructions%s; d < db {
					db = d
				}
			}
			if f := m.FlushICacheEvery; f > 0 {
				if d := f - m.res.Instructions%f; d < db {
					db = d
				}
			}
		}
		if idx != int(blk.Start) || n > rem || db <= n {
			step := n
			if rem < step {
				step = rem
			}
			if db < step {
				step = db
			}
			// The fast loop only syncs the architectural PC at stops;
			// delegation resumes the reference loop from it, so sync now.
			cpu.PC = op.Addr
			if step == 0 {
				// Budget exhausted: pause with the PC at the next
				// instruction, exactly as the legacy loop does.
				return m.finish(), ErrInstructionBudget
			}
			res, err := m.runLegacy(step)
			if err != ErrInstructionBudget {
				return res, err
			}
			idx = int(code.IndexOf(cpu.PC))
			continue
		}

		// Fast block: charge the architectural counters for the whole
		// extent up front. Any mid-block stop rolls back the unretired
		// suffix, so the counters are exact at every exit.
		m.res.Instructions += n
		for _, pk := range code.Classes[blk.ClassOff : blk.ClassOff+uint32(blk.ClassN)] {
			m.res.ClassInstr[pk>>24] += uint64(pk & 0xffffff)
		}

		for idx < end {
			op = &ops[idx]
			if op.Flags&pcode.FNewPage != 0 {
				if pg := op.Addr >> mem.PageShift; pg != m.lastExecPage {
					if err := m.Proc.Space.CheckExec(op.Addr); err != nil {
						var f *mem.Fault
						errors.As(err, &f)
						cpu.PC = op.Addr
						m.stopFault(op.Addr, f)
						m.rollback(code, idx, end) // fetch fault: op not retired
						return m.finish(), nil
					}
					m.lastExecPage = pg
				}
			}
			if op.Flags&pcode.FNewLine != 0 {
				if line := op.Addr >> 6; line != m.lastLine {
					if m.ic.access(op.Addr) {
						m.res.Cycles += prof.ICacheMissPenalty
						m.res.ICacheStallCycles += prof.ICacheMissPenalty
					}
					m.lastLine = line
				}
			}

			switch op.Exec {
			case pcode.XMovImm:
				cpu.R[op.Dst] = op.Imm
				m.charge(isa.KMovImm, prof.Cost[isa.KMovImm])
				idx++
			case pcode.XMovReg:
				cpu.R[op.Dst] = cpu.R[op.Src]
				m.charge(isa.KMovReg, prof.Cost[isa.KMovReg])
				idx++
			case pcode.XLoadAbs:
				if m.rec != nil && m.rec.NearGuard(op.Imm) {
					// The block was charged up front; subtract the not-yet-
					// retired suffix so the recorded instruction count
					// matches the legacy loop's at this op.
					m.rec.Record(telemetry.FlightLoad, op.Addr, op.Imm, m.res.Instructions-uint64(end-idx-1))
				}
				v, ok := m.loadHit(op.Imm)
				if !ok {
					var f *mem.Fault
					if v, f = m.read64Cold(op.Imm); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KLoad, prof.Cost[isa.KLoad])
				idx++
			case pcode.XLoadBase:
				a := cpu.R[op.Base] + uint64(op.Disp)
				if m.rec != nil && m.rec.NearGuard(a) {
					m.rec.Record(telemetry.FlightLoad, op.Addr, a, m.res.Instructions-uint64(end-idx-1))
				}
				v, ok := m.loadHit(a)
				if !ok {
					var f *mem.Fault
					if v, f = m.read64Cold(a); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KLoad, prof.Cost[isa.KLoad])
				idx++
			case pcode.XStore:
				a := cpu.R[op.Base] + uint64(op.Disp)
				if !m.storeHit(a, cpu.R[op.Src]) {
					if f := m.write64Cold(a, cpu.R[op.Src]); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				m.charge(isa.KStore, prof.Cost[isa.KStore])
				idx++
			case pcode.XLea:
				cpu.R[op.Dst] = cpu.R[op.Base] + uint64(op.Disp)
				m.charge(isa.KLea, prof.Cost[isa.KLea])
				idx++
			case pcode.XAluAddRR:
				cpu.R[op.Dst] += cpu.R[op.Src]
				m.charge(isa.KAlu, prof.Cost[isa.KAlu])
				idx++
			case pcode.XAluAddRI:
				cpu.R[op.Dst] += op.Imm
				m.charge(isa.KAluImm, prof.Cost[isa.KAluImm])
				idx++
			case pcode.XAluSubRR:
				cpu.R[op.Dst] -= cpu.R[op.Src]
				m.charge(isa.KAlu, prof.Cost[isa.KAlu])
				idx++
			case pcode.XAluSubRI:
				cpu.R[op.Dst] -= op.Imm
				m.charge(isa.KAluImm, prof.Cost[isa.KAluImm])
				idx++
			case pcode.XAluRR:
				v, c, err := aluExec(op.Alu, cpu.R[op.Dst], cpu.R[op.Src], prof, prof.Cost[isa.KAlu])
				if err != nil {
					err = m.errStop(code, idx, end, err)
					return m.finish(), err
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KAlu, c)
				idx++
			case pcode.XAluRI:
				v, c, err := aluExec(op.Alu, cpu.R[op.Dst], op.Imm, prof, prof.Cost[isa.KAluImm])
				if err != nil {
					err = m.errStop(code, idx, end, err)
					return m.finish(), err
				}
				cpu.R[op.Dst] = v
				m.charge(isa.KAluImm, c)
				idx++
			case pcode.XSet:
				cpu.R[op.Dst] = cmpExec(op.Cmp, cpu.R[op.A], cpu.R[op.B])
				m.charge(isa.KSet, prof.Cost[isa.KSet])
				idx++
			case pcode.XPush:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], cpu.R[op.Src]) {
					if f := m.write64Cold(cpu.R[isa.RSP], cpu.R[op.Src]); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				m.charge(isa.KPush, prof.Cost[isa.KPush])
				idx++
			case pcode.XPushImm:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], op.Imm) {
					if f := m.write64Cold(cpu.R[isa.RSP], op.Imm); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				m.charge(isa.KPushImm, prof.Cost[isa.KPushImm])
				idx++
			case pcode.XPop:
				v, ok := m.loadHit(cpu.R[isa.RSP])
				if !ok {
					var f *mem.Fault
					if v, f = m.read64Cold(cpu.R[isa.RSP]); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				cpu.R[op.Dst] = v
				cpu.R[isa.RSP] += 8
				m.charge(isa.KPop, prof.Cost[isa.KPop])
				idx++
			case pcode.XCall:
				t, stop := m.fastCall(code, idx, end, false)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XCallInd:
				t, stop := m.fastCall(code, idx, end, true)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XRet:
				t, stop := m.fastRet(code, idx, end)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XJmp:
				t, stop := m.fastJump(code, idx, end, isa.KJmp)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XJz:
				if cpu.R[op.Src] == 0 {
					t, stop := m.fastJump(code, idx, end, isa.KJz)
					if stop {
						return m.finish(), nil
					}
					idx = t
					continue blocks
				}
				m.charge(isa.KJz, prof.Cost[isa.KJz])
				idx++
			case pcode.XJnz:
				if cpu.R[op.Src] != 0 {
					t, stop := m.fastJump(code, idx, end, isa.KJnz)
					if stop {
						return m.finish(), nil
					}
					idx = t
					continue blocks
				}
				m.charge(isa.KJnz, prof.Cost[isa.KJnz])
				idx++
			case pcode.XNop:
				m.charge(isa.KNop, prof.Cost[isa.KNop])
				idx++

			case pcode.XPushImm2:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], op.Imm) {
					if f := m.write64Cold(cpu.R[isa.RSP], op.Imm); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				m.charge(isa.KPushImm, prof.Cost[isa.KPushImm])
				o2 := &ops[idx+1]
				if !m.fetch2(o2) {
					m.rollback(code, idx+1, end)
					return m.finish(), nil
				}
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], o2.Imm) {
					if f := m.write64Cold(cpu.R[isa.RSP], o2.Imm); f != nil {
						m.memStop(code, idx+1, end, f)
						return m.finish(), nil
					}
				}
				m.charge(isa.KPushImm, prof.Cost[isa.KPushImm])
				idx += 2
			case pcode.XPushImmCall:
				cpu.R[isa.RSP] -= 8
				if !m.storeHit(cpu.R[isa.RSP], op.Imm) {
					if f := m.write64Cold(cpu.R[isa.RSP], op.Imm); f != nil {
						m.memStop(code, idx, end, f)
						return m.finish(), nil
					}
				}
				m.charge(isa.KPushImm, prof.Cost[isa.KPushImm])
				if !m.fetch2(&ops[idx+1]) {
					m.rollback(code, idx+1, end)
					return m.finish(), nil
				}
				t, stop := m.fastCall(code, idx+1, end, false)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks
			case pcode.XAluAddImmCall:
				cpu.R[op.Dst] += op.Imm
				m.charge(isa.KAluImm, prof.Cost[isa.KAluImm])
				if !m.fetch2(&ops[idx+1]) {
					m.rollback(code, idx+1, end)
					return m.finish(), nil
				}
				t, stop := m.fastCall(code, idx+1, end, false)
				if stop {
					return m.finish(), nil
				}
				idx = t
				continue blocks

			default: // vector ops and the rare stops (XFellOff cannot appear inside a block)
				t, stop, err := m.fastRare(code, idx, end)
				if stop {
					return m.finish(), err
				}
				idx = t
			}
		}
	}
}

// fastRare executes the op at idx for the cases runFast keeps out of its
// own body, so that the TLB hit helpers still inline there: the vector
// moves (whose lanes take the inlined hit path here) and the rare ops —
// traps, system calls, halt and malformed ops. It returns the next op's
// index, or stop=true with the PC, counters and rollback settled and err
// the run's error.
func (m *Machine) fastRare(code *pcode.Program, idx, end int) (next int, stop bool, err error) {
	op := &code.Ops[idx]
	cpu, prof := &m.CPU, m.Prof
	switch op.Exec {
	case pcode.XVLoadAbs, pcode.XVLoadBase, pcode.XVLoadStore:
		a := op.Imm
		if op.Exec == pcode.XVLoadBase {
			a = cpu.R[op.Base] + uint64(op.Disp)
		}
		if f := m.vload(&cpu.V[op.VDst], a, int(op.Lanes)); f != nil {
			m.memStop(code, idx, end, f)
			return 0, true, nil
		}
		m.chargeVec(isa.KVLoad, int(op.Lanes))
		if op.Exec != pcode.XVLoadStore {
			return idx + 1, false, nil
		}
		o2 := &code.Ops[idx+1]
		if !m.fetch2(o2) {
			m.rollback(code, idx+1, end)
			return 0, true, nil
		}
		if f := m.vstore(&cpu.V[o2.VSrc], vaddr(cpu, o2.Target, o2.Base, o2.Disp), int(o2.Lanes)); f != nil {
			m.memStop(code, idx+1, end, f)
			return 0, true, nil
		}
		m.chargeVec(isa.KVStore, int(o2.Lanes))
		return idx + 2, false, nil
	case pcode.XVStore, pcode.XVStoreA:
		a := vaddr(cpu, op.Target, op.Base, op.Disp)
		if op.Exec == pcode.XVStoreA && a%16 != 0 {
			return 0, true, m.errStop(code, idx, end, fmt.Errorf("misaligned vector store to %#x", a))
		}
		if f := m.vstore(&cpu.V[op.VSrc], a, int(op.Lanes)); f != nil {
			m.memStop(code, idx, end, f)
			return 0, true, nil
		}
		m.chargeVec(op.Kind, int(op.Lanes))
		return idx + 1, false, nil
	case pcode.XVZeroUpper:
		cpu.DirtyUpper = false
		for i := range cpu.V {
			for l := 2; l < 8; l++ {
				cpu.V[i][l] = 0
			}
		}
		m.charge(isa.KVZeroUpper, prof.Cost[isa.KVZeroUpper])
		return idx + 1, false, nil
	case pcode.XTrap:
		kind := m.Proc.ClassifyFault(op.Addr, nil)
		if kind == rt.TrapNone {
			kind = rt.TrapProlog
		}
		ev := rt.TrapEvent{Kind: kind, PC: op.Addr}
		m.Proc.RecordTrap(ev)
		m.res.Trap = &ev
		cpu.PC = op.Addr
		m.rollback(code, idx+1, end)
		return 0, true, nil
	case pcode.XSys:
		if err := m.sys(op.Sys); err != nil {
			return 0, true, m.errStop(code, idx, end, err)
		}
		m.flushTLB()
		m.charge(isa.KSys, prof.SysCost)
		if m.res.Halted {
			cpu.PC = op.Addr
			return 0, true, nil
		}
		return idx + 1, false, nil
	case pcode.XHalt:
		m.res.Halted = true
		m.charge(isa.KHalt, prof.Cost[isa.KHalt])
		cpu.PC = op.Addr
		return 0, true, nil
	case pcode.XBadVec:
		return 0, true, m.errStop(code, idx, end, fmt.Errorf("bad vector width %d", op.Imm))
	}
	// XUnimpl
	return 0, true, m.errStop(code, idx, end, fmt.Errorf("unimplemented %v", op.Kind))
}

// vaddr is a vector op's effective address: absolute, or base-relative
// when the op names a base register.
func vaddr(cpu *CPU, target uint64, base isa.Reg, disp int64) uint64 {
	if base != isa.NoGPR {
		return cpu.R[base] + uint64(disp)
	}
	return target + uint64(disp)
}

// vload loads lanes words from a into v, lane by lane, stopping at the
// first faulting lane.
func (m *Machine) vload(v *[8]uint64, a uint64, lanes int) *mem.Fault {
	for l := 0; l < lanes; l++ {
		la := a + uint64(l)*8
		w, ok := m.loadHit(la)
		if !ok {
			var f *mem.Fault
			if w, f = m.read64Cold(la); f != nil {
				return f
			}
		}
		v[l] = w
	}
	return nil
}

// vstore stores lanes words of v to a, lane by lane, stopping at the first
// faulting lane.
func (m *Machine) vstore(v *[8]uint64, a uint64, lanes int) *mem.Fault {
	for l := 0; l < lanes; l++ {
		la := a + uint64(l)*8
		if !m.storeHit(la, v[l]) {
			if f := m.write64Cold(la, v[l]); f != nil {
				return f
			}
		}
	}
	return nil
}

// chargeVec charges a completed vector move of the given width: moves wider
// than 128 bits dirty the upper state, and 512-bit moves cost a little more
// per op.
func (m *Machine) chargeVec(k isa.Kind, lanes int) {
	cost := m.Prof.Cost[k]
	if lanes*8 > 16 {
		m.CPU.DirtyUpper = true
	}
	if lanes > 4 {
		cost *= 1.3
	}
	m.charge(k, cost)
}

// memStop stops the run on a data fault of the op at idx. The op retired
// architecturally, so only its successors are rolled back.
func (m *Machine) memStop(code *pcode.Program, idx, end int, f *mem.Fault) {
	addr := code.Ops[idx].Addr
	m.CPU.PC = addr
	m.stopFault(addr, f)
	m.rollback(code, idx+1, end)
}

// errStop stops the run on a VM error at the op at idx, with the same
// rollback as memStop, and returns the error in the legacy loop's wording.
func (m *Machine) errStop(code *pcode.Program, idx, end int, err error) error {
	addr := code.Ops[idx].Addr
	m.CPU.PC = addr
	m.rollback(code, idx+1, end)
	return fmt.Errorf("vm: at %#x: %w", addr, err)
}

// rollback undoes the block-entry charge for the unretired ops [from, end) —
// called when a fault, trap or VM error stops execution mid-block. Faulting
// fetches pass the faulting op itself; faulting executions pass the
// successor (the instruction retired architecturally even though it did not
// complete, matching the legacy counters).
func (m *Machine) rollback(code *pcode.Program, from, end int) {
	for i := from; i < end; i++ {
		m.res.ClassInstr[code.Ops[i].Kind]--
	}
	m.res.Instructions -= uint64(end - from)
}

// fetch2 applies the fetch prelude (exec-permission per page transition,
// i-cache access per line transition) for the second component of a fused
// pair. Returns false on an exec fault, with the fault recorded and the PC
// at the unretired component.
func (m *Machine) fetch2(op *pcode.Op) bool {
	if op.Flags&pcode.FNewPage != 0 {
		if pg := op.Addr >> mem.PageShift; pg != m.lastExecPage {
			if err := m.Proc.Space.CheckExec(op.Addr); err != nil {
				var f *mem.Fault
				errors.As(err, &f)
				m.CPU.PC = op.Addr
				m.stopFault(op.Addr, f)
				return false
			}
			m.lastExecPage = pg
		}
	}
	if op.Flags&pcode.FNewLine != 0 {
		if line := op.Addr >> 6; line != m.lastLine {
			if m.ic.access(op.Addr) {
				m.res.Cycles += m.Prof.ICacheMissPenalty
				m.res.ICacheStallCycles += m.Prof.ICacheMissPenalty
			}
			m.lastLine = line
		}
	}
	return true
}

// fastCall executes the tail of a call op at idx: push the return address,
// maintain the shadow stack and call counter, charge the (possibly
// AVX-transition-penalized) cost, and transfer. Returns the callee's dense
// index, or stop=true when the run ended (push fault, shadow-stack trap or
// wild target) — rollback for the block suffix has then been applied.
func (m *Machine) fastCall(code *pcode.Program, idx, end int, indirect bool) (next int, stop bool) {
	op := &code.Ops[idx]
	cpu := &m.CPU
	kind := isa.KCall
	tIdx := op.TIdx
	target := op.Target
	if indirect {
		kind = isa.KCallInd
		target = cpu.R[op.Src]
		tIdx = code.IndexOf(target)
	}
	cpu.R[isa.RSP] -= 8
	if !m.storeHit(cpu.R[isa.RSP], op.Imm) {
		if f := m.write64Cold(cpu.R[isa.RSP], op.Imm); f != nil {
			m.memStop(code, idx, end, f)
			return 0, true
		}
	}
	if m.Proc.Cfg.ShadowStack {
		m.shadow = append(m.shadow, op.Imm)
	}
	m.res.Calls++
	if op.RAIdx >= 0 {
		if len(m.rstack) >= 4096 {
			m.rstack = m.rstack[:0] // deep unbalance: predict nothing
		}
		m.rstack = append(m.rstack, retPred{addr: op.Imm, idx: op.RAIdx})
	}
	cost := m.Prof.Cost[kind]
	if cpu.DirtyUpper {
		cost += m.Prof.AVXDirtyPenalty
	}
	m.charge(kind, cost)
	if m.rec != nil {
		// Control transfers are block-final, so the up-front block charge
		// has exactly retired through this op; recording happens before
		// target resolution so wild calls are captured too.
		fk := telemetry.FlightCall
		if indirect {
			fk = telemetry.FlightCallInd
		}
		m.rec.Record(fk, op.Addr, target, m.res.Instructions)
	}
	if tIdx < 0 {
		cpu.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: target, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, true
	}
	if m.profiler != nil {
		m.profiler.onCall(code.Funcs[code.Ops[tIdx].FuncIx].Name, m.res.Cycles)
	}
	return int(tIdx), false
}

// fastRet executes a return op at idx; same contract as fastCall.
func (m *Machine) fastRet(code *pcode.Program, idx, end int) (next int, stop bool) {
	op := &code.Ops[idx]
	cpu := &m.CPU
	ra, ok := m.loadHit(cpu.R[isa.RSP])
	if !ok {
		var f *mem.Fault
		if ra, f = m.read64Cold(cpu.R[isa.RSP]); f != nil {
			m.memStop(code, idx, end, f)
			return 0, true
		}
	}
	cpu.R[isa.RSP] += 8
	if m.Proc.Cfg.ShadowStack {
		if n := len(m.shadow); n == 0 || m.shadow[n-1] != ra {
			ev := rt.TrapEvent{Kind: rt.TrapShadowStack, PC: op.Addr, Addr: ra}
			m.Proc.RecordTrap(ev)
			m.res.Trap = &ev
			cpu.PC = op.Addr
			m.rollback(code, idx+1, end)
			return 0, true
		}
		m.shadow = m.shadow[:len(m.shadow)-1]
	}
	cost := m.Prof.Cost[isa.KRet]
	if cpu.DirtyUpper {
		cost += m.Prof.AVXDirtyPenalty
	}
	m.charge(isa.KRet, cost)
	if m.rec != nil {
		m.rec.Record(telemetry.FlightRet, op.Addr, ra, m.res.Instructions)
	}
	t := int32(-1)
	if n := len(m.rstack); n > 0 {
		e := m.rstack[n-1]
		m.rstack = m.rstack[:n-1]
		if e.addr == ra {
			t = e.idx
		}
	}
	if t < 0 {
		t = code.IndexOf(ra)
	}
	if t < 0 {
		cpu.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: ra, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, true
	}
	if m.profiler != nil {
		m.profiler.onRet(code.Funcs[code.Ops[t].FuncIx].Name, m.res.Cycles)
	}
	return int(t), false
}

// fastJump executes a taken jump at idx; same contract as fastCall.
func (m *Machine) fastJump(code *pcode.Program, idx, end int, k isa.Kind) (next int, stop bool) {
	op := &code.Ops[idx]
	m.charge(k, m.Prof.Cost[k])
	if m.rec != nil {
		m.rec.Record(telemetry.FlightJump, op.Addr, op.Target, m.res.Instructions)
	}
	t := op.TIdx
	if t < 0 {
		m.CPU.PC = op.Addr
		m.stopFault(op.Addr, &mem.Fault{Addr: op.Target, Access: mem.AccessExec, Unmapped: true})
		m.rollback(code, idx+1, end)
		return 0, true
	}
	if m.profiler != nil && code.Ops[t].FuncIx != op.FuncIx {
		m.profiler.onJump(code.Funcs[code.Ops[t].FuncIx].Name, m.res.Cycles)
	}
	return int(t), false
}
