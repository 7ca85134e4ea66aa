package dbi

import (
	"fmt"

	"repro/internal/vex"
	"repro/internal/vm"
)

// compiledEngine executes pre-lowered micro-op translations
// (vex.Compiled), looked up in the core's slot table. It is the production
// engine; irEngine remains as the reference interpreter the differential
// tests oracle against.
type compiledEngine struct {
	c    *Core
	tmps []uint64
	args []uint64

	// Fault-attribution state (see FaultPoint). RunBlock records the block
	// being executed and the index of the op in flight before every
	// fault-capable op (memory accesses, dirty calls) — a register store,
	// orders of magnitude cheaper than the per-block defer it replaces.
	// curIC mirrors how many of the block's instructions have already been
	// credited to the counters.
	cur    *vex.Compiled
	curIdx int
	curIC  uint64
}

// FaultPoint implements vm.FaultLocator: called by the machine's crash
// containment when a panic unwinds out of RunBlock. It returns the guest PC
// of the faulting instruction (from the compiled block's PCs side table) and
// settles the instruction counters so they show exactly the instructions
// that retired before the fault — matching the IR interpreter's per-IMark
// bookkeeping.
func (e *compiledEngine) FaultPoint(m *vm.Machine, t *vm.Thread) uint64 {
	code := e.cur
	if code == nil {
		return t.PC
	}
	// Past the op loop (host-side transfer code): attribute to the block's
	// final guest instruction, all instructions retired.
	pc, n := code.LastPC, uint64(code.NInstrs)
	if i := e.curIdx; i >= 0 && i < len(code.Ops) {
		pc, n = code.PCs[i], uint64(code.ICs[i])
	} else if e.curIdx < 0 {
		// No fault-capable op reached yet.
		pc, n = code.GuestAddr, 0
	}
	if n > e.curIC {
		m.InstrsExecuted += n - e.curIC
		t.InstrsExecuted += n - e.curIC
		e.curIC = n
	}
	return pc
}

// RunBlock implements vm.Engine.
func (e *compiledEngine) RunBlock(m *vm.Machine, t *vm.Thread) (res vm.RunResult, err error) {
	if t.PC == vm.ThreadExitAddr {
		return m.ExitThread(t), nil
	}
	if e.c.PanicHook != nil && e.c.PanicHook() {
		panic(&vm.EnginePanic{PC: t.PC, Val: "injected engine defect (compiled)"})
	}
	// Drop the previous block's fault context before the lookup so a panic
	// during translation is not misattributed to stale state.
	e.cur = nil
	c := e.c
	code := c.slot(t.PC)
	if code != nil {
		c.CacheHits++
	} else if code, err = c.compiled(t.PC, t.ID); err != nil {
		return vm.RunOK, err
	}
	if uint32(cap(e.tmps)) < code.NFrame {
		e.tmps = make([]uint64, code.NFrame)
	}
	tmps := e.tmps[:cap(e.tmps)]
	regs := &t.Regs

	// Instruction counting is folded into the exits: ic tracks how many of
	// the block's instructions have been credited to the counters so far
	// (advanced by dirty calls, exits and the block end). There is no
	// per-instruction micro-op.
	//
	// There is also no defer here: a mid-block fault unwinds straight to the
	// machine's containment boundary, which calls FaultPoint to recover the
	// faulting guest PC from the cur/curIdx state kept below.
	var ic uint64
	e.cur, e.curIdx, e.curIC = code, -1, 0

	ops := code.Ops
	for i := 0; i < len(ops); i++ {
		u := &ops[i]
		switch u.Code {
		case vex.UMovC:
			tmps[u.Dst] = u.Imm
		case vex.UMovT:
			tmps[u.Dst] = tmps[u.A]
		case vex.UMovR:
			tmps[u.Dst] = regs[u.A]
		case vex.UPutC:
			regs[u.Dst] = u.Imm
		case vex.UPutT:
			regs[u.Dst] = tmps[u.A]
		case vex.UPutR:
			regs[u.Dst] = regs[u.A]
		case vex.UBinTT:
			tmps[u.Dst] = u.Fn(tmps[u.A], tmps[u.B])
		case vex.UBinTC:
			tmps[u.Dst] = u.Fn(tmps[u.A], u.Imm)
		case vex.UBinTR:
			tmps[u.Dst] = u.Fn(tmps[u.A], regs[u.B])
		case vex.UBinCT:
			tmps[u.Dst] = u.Fn(u.Imm, tmps[u.B])
		case vex.UBinCR:
			tmps[u.Dst] = u.Fn(u.Imm, regs[u.B])
		case vex.UBinRT:
			tmps[u.Dst] = u.Fn(regs[u.A], tmps[u.B])
		case vex.UBinRC:
			// Add, the address and induction arithmetic of every
			// loop, skips the indirect call in its hot shapes.
			v := regs[u.A] + u.Imm
			if u.Op != vex.OpAdd {
				v = u.Fn(regs[u.A], u.Imm)
			}
			tmps[u.Dst] = v
		case vex.UBinRR:
			tmps[u.Dst] = u.Fn(regs[u.A], regs[u.B])
		case vex.UUnT:
			tmps[u.Dst] = u.Fn1(tmps[u.A])
		case vex.UUnR:
			tmps[u.Dst] = u.Fn1(regs[u.A])
		case vex.ULdT:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(tmps[u.A], u.Wd)
		case vex.ULdC:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(u.Imm, u.Wd)
		case vex.ULdR:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(regs[u.A], u.Wd)
		case vex.UStTT:
			e.curIdx = i
			m.Mem.Store(tmps[u.A], u.Wd, tmps[u.B])
		case vex.UStTC:
			e.curIdx = i
			m.Mem.Store(tmps[u.A], u.Wd, u.Imm)
		case vex.UStTR:
			e.curIdx = i
			m.Mem.Store(tmps[u.A], u.Wd, regs[u.B])
		case vex.UStCT:
			e.curIdx = i
			m.Mem.Store(u.Imm, u.Wd, tmps[u.B])
		case vex.UStCR:
			e.curIdx = i
			m.Mem.Store(u.Imm, u.Wd, regs[u.B])
		case vex.UStRT:
			e.curIdx = i
			m.Mem.Store(regs[u.A], u.Wd, tmps[u.B])
		case vex.UStRC:
			e.curIdx = i
			m.Mem.Store(regs[u.A], u.Wd, u.Imm)
		case vex.UStRR:
			e.curIdx = i
			m.Mem.Store(regs[u.A], u.Wd, regs[u.B])
		case vex.UPutBinTT:
			v := u.Fn(tmps[u.A], tmps[u.B])
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutBinTC:
			v := tmps[u.A] + u.Imm
			if u.Op != vex.OpAdd {
				v = u.Fn(tmps[u.A], u.Imm)
			}
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutBinTR:
			v := tmps[u.A] + regs[u.B]
			if u.Op != vex.OpAdd {
				v = u.Fn(tmps[u.A], regs[u.B])
			}
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutBinCT:
			v := u.Fn(u.Imm, tmps[u.B])
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutBinCR:
			v := u.Fn(u.Imm, regs[u.B])
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutBinRT:
			v := u.Fn(regs[u.A], tmps[u.B])
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutBinRC:
			v := u.Fn(regs[u.A], u.Imm)
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutBinRR:
			v := u.Fn(regs[u.A], regs[u.B])
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutUnT:
			v := u.Fn1(tmps[u.A])
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.UPutUnR:
			v := u.Fn1(regs[u.A])
			tmps[u.Dst], regs[u.Wd] = v, v
		case vex.ULdPRI:
			e.curIdx = i
			v := m.Mem.Load(regs[u.A]+u.Imm, u.Wd)
			tmps[u.Dst], regs[u.B] = v, v
		case vex.ULdPT:
			e.curIdx = i
			v := m.Mem.Load(tmps[u.A], u.Wd)
			tmps[u.Dst], regs[u.B] = v, v
		case vex.ULdPC:
			e.curIdx = i
			v := m.Mem.Load(u.Imm, u.Wd)
			tmps[u.Dst], regs[u.B] = v, v
		case vex.UPutLdC:
			regs[u.A] = u.Imm
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(u.Imm, u.Wd)
		case vex.UPutLdPC:
			regs[u.A] = u.Imm
			e.curIdx = i
			v := m.Mem.Load(u.Imm, u.Wd)
			tmps[u.Dst], regs[u.B] = v, v
		case vex.ULdTRI:
			e.curIdx = i
			tmps[u.Dst] = m.Mem.Load(regs[u.A]+u.Imm, u.Wd)
		case vex.UStRIR:
			e.curIdx = i
			m.Mem.Store(regs[u.A]+u.Imm, u.Wd, regs[u.B])
		case vex.UStRIT:
			e.curIdx = i
			m.Mem.Store(regs[u.A]+u.Imm, u.Wd, tmps[u.B])
		case vex.UExitT:
			if tmps[u.A] != 0 {
				return e.takeExit(m, t, u, ic)
			}
		case vex.UExitR:
			if regs[u.A] != 0 {
				return e.takeExit(m, t, u, ic)
			}
		case vex.UExitBinTT:
			if u.Fn(tmps[u.A], tmps[u.B]) != 0 {
				return e.takeExit(m, t, u, ic)
			}
		case vex.UExitBinTR:
			if u.Fn(tmps[u.A], regs[u.B]) != 0 {
				return e.takeExit(m, t, u, ic)
			}
		case vex.UExitBinRT:
			if u.Fn(regs[u.A], tmps[u.B]) != 0 {
				return e.takeExit(m, t, u, ic)
			}
		case vex.UExitBinRR:
			if u.Fn(regs[u.A], regs[u.B]) != 0 {
				return e.takeExit(m, t, u, ic)
			}
		case vex.UJmp:
			return e.takeExit(m, t, u, ic)
		case vex.UDirty:
			e.curIdx = i
			d := u.Dirty
			// Credit the instructions started before the call so the
			// helper observes IR-interpreter-exact counters.
			if n := uint64(d.InstrsBefore); n > ic {
				m.InstrsExecuted += n - ic
				t.InstrsExecuted += n - ic
				ic = n
			}
			e.curIC = ic
			if cap(e.args) < len(d.Args) {
				e.args = make([]uint64, len(d.Args))
			}
			args := e.args[:len(d.Args)]
			for j := range d.Args {
				a := &d.Args[j]
				switch a.Kind {
				case vex.KindConst:
					args[j] = a.Imm
				case vex.KindRdTmp:
					args[j] = tmps[a.Idx]
				default:
					args[j] = regs[a.Idx]
				}
			}
			c.DirtyCalls++
			r := d.Fn(t, args)
			if d.HasTmp {
				tmps[d.Tmp] = r
			}
		}
	}

	// Block end: credit the remaining instructions and move the fault
	// attribution point to the final guest instruction (the transfer's
	// call site).
	if n := uint64(code.NInstrs); n > ic {
		m.InstrsExecuted += n - ic
		t.InstrsExecuted += n - ic
		ic = n
	}
	e.curIdx, e.curIC = len(ops), ic

	var next uint64
	switch code.NextKind {
	case vex.KindConst:
		next = code.NextImm
	case vex.KindRdTmp:
		next = tmps[code.NextIdx]
	default:
		next = regs[code.NextIdx]
	}
	switch code.NextJK {
	case vex.JKBoring:
		t.PC = next
		return vm.RunOK, nil
	case vex.JKCall:
		t.PushFrame(next, code.LastPC)
		t.PC = next
		return vm.RunOK, nil
	case vex.JKRet:
		t.PopFrame()
		t.PC = next
		if next == vm.ThreadExitAddr {
			return m.ExitThread(t), nil
		}
		return vm.RunOK, nil
	case vex.JKHostCall:
		t.PC = next
		return m.DoHostCall(t, code.Aux), nil
	case vex.JKClientReq:
		t.PC = next
		m.DoClientRequest(t, code.Aux)
		return vm.RunOK, nil
	case vex.JKExitThread:
		t.PC = next
		return m.ExitThread(t), nil
	}
	return vm.RunOK, fmt.Errorf("dbi: bad jump kind %v", code.NextJK)
}

// takeExit performs a taken block exit: credit the retired-instruction count
// the compiler stored on the op and transfer control.
func (e *compiledEngine) takeExit(m *vm.Machine, t *vm.Thread, u *vex.UOp, ic uint64) (vm.RunResult, error) {
	if n := uint64(u.Dst); n > ic {
		m.InstrsExecuted += n - ic
		t.InstrsExecuted += n - ic
	}
	t.PC = u.Imm
	return vm.RunOK, nil
}
