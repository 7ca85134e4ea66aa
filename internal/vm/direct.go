package vm

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/vex"
)

// AccessHook observes one memory access during direct execution: the
// compiled-in check of a compile-time-instrumented tool.
type AccessHook func(t *Thread, addr uint64, width uint8, pc uint64)

// DirectEngine interprets guest instructions without any translation or
// instrumentation. It is the "no tools" reference executor of the
// evaluation: the fastest way this substrate can run a program.
//
// Compile-time-instrumented tools (Archer, TaskSanitizer, ROMP) attach
// LoadHook/StoreHook plus a per-instruction Filter: their checks run inline
// with native-speed execution, unlike heavyweight DBI which pays for IR
// translation and interpretation on every instruction — this is where the
// paper's 10x-vs-100x overhead gap comes from.
type DirectEngine struct {
	LoadHook  AccessHook
	StoreHook AccessHook
	// Filter marks instrumented instructions (indexed by text offset /
	// InstrBytes). Nil with hooks set means "instrument everything".
	Filter []bool
}

// hookable reports whether the instruction at pc is instrumented.
func (e *DirectEngine) hookable(pc uint64) bool {
	if e.Filter == nil {
		return true
	}
	idx := (pc - guest.TextBase) / guest.InstrBytes
	return idx < uint64(len(e.Filter)) && e.Filter[idx]
}

// RunBlock interprets instructions from t.PC until a block-ending
// instruction executes.
func (e *DirectEngine) RunBlock(m *Machine, t *Thread) (RunResult, error) {
	pc := t.PC
	for steps := 0; ; steps++ {
		if pc == ThreadExitAddr {
			t.PC = pc
			return m.ExitThread(t), nil
		}
		in := m.decodedAt(pc)
		if in == nil {
			return RunOK, fmt.Errorf("vm: bad fetch address 0x%x", pc)
		}
		m.InstrsExecuted++
		t.InstrsExecuted++
		next := pc + guest.InstrBytes
		r := &t.Regs
		imm := uint64(int64(in.Imm))
		switch in.Op {
		case guest.OpNop:
		case guest.OpLdi:
			r[in.Rd] = imm
		case guest.OpLdih:
			r[in.Rd] = (uint64(uint32(in.Imm)) << 32) | (r[in.Rd] & 0xffffffff)
		case guest.OpMov:
			r[in.Rd] = r[in.Rs1]
		case guest.OpAdd:
			r[in.Rd] = r[in.Rs1] + r[in.Rs2]
		case guest.OpSub:
			r[in.Rd] = r[in.Rs1] - r[in.Rs2]
		case guest.OpMul:
			r[in.Rd] = r[in.Rs1] * r[in.Rs2]
		case guest.OpDiv:
			r[in.Rd] = vex.EvalBinop(vex.OpDiv, r[in.Rs1], r[in.Rs2])
		case guest.OpRem:
			r[in.Rd] = vex.EvalBinop(vex.OpRem, r[in.Rs1], r[in.Rs2])
		case guest.OpAnd:
			r[in.Rd] = r[in.Rs1] & r[in.Rs2]
		case guest.OpOr:
			r[in.Rd] = r[in.Rs1] | r[in.Rs2]
		case guest.OpXor:
			r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
		case guest.OpShl:
			r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
		case guest.OpShr:
			r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
		case guest.OpSar:
			r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))
		case guest.OpSeq:
			r[in.Rd] = b2u(r[in.Rs1] == r[in.Rs2])
		case guest.OpSne:
			r[in.Rd] = b2u(r[in.Rs1] != r[in.Rs2])
		case guest.OpSlt:
			r[in.Rd] = b2u(int64(r[in.Rs1]) < int64(r[in.Rs2]))
		case guest.OpSge:
			r[in.Rd] = b2u(int64(r[in.Rs1]) >= int64(r[in.Rs2]))
		case guest.OpSltu:
			r[in.Rd] = b2u(r[in.Rs1] < r[in.Rs2])
		case guest.OpSgeu:
			r[in.Rd] = b2u(r[in.Rs1] >= r[in.Rs2])
		case guest.OpAddi:
			r[in.Rd] = r[in.Rs1] + imm
		case guest.OpMuli:
			r[in.Rd] = r[in.Rs1] * imm
		case guest.OpAndi:
			r[in.Rd] = r[in.Rs1] & imm
		case guest.OpOri:
			r[in.Rd] = r[in.Rs1] | imm
		case guest.OpShli:
			r[in.Rd] = r[in.Rs1] << (imm & 63)
		case guest.OpShri:
			r[in.Rd] = r[in.Rs1] >> (imm & 63)
		case guest.OpFadd:
			r[in.Rd] = vex.EvalBinop(vex.OpFAdd, r[in.Rs1], r[in.Rs2])
		case guest.OpFsub:
			r[in.Rd] = vex.EvalBinop(vex.OpFSub, r[in.Rs1], r[in.Rs2])
		case guest.OpFmul:
			r[in.Rd] = vex.EvalBinop(vex.OpFMul, r[in.Rs1], r[in.Rs2])
		case guest.OpFdiv:
			r[in.Rd] = vex.EvalBinop(vex.OpFDiv, r[in.Rs1], r[in.Rs2])
		case guest.OpFlt:
			r[in.Rd] = vex.EvalBinop(vex.OpFCmpLT, r[in.Rs1], r[in.Rs2])
		case guest.OpFle:
			r[in.Rd] = vex.EvalBinop(vex.OpFCmpLE, r[in.Rs1], r[in.Rs2])
		case guest.OpFeq:
			r[in.Rd] = vex.EvalBinop(vex.OpFCmpEQ, r[in.Rs1], r[in.Rs2])
		case guest.OpItof:
			r[in.Rd] = vex.EvalUnop(vex.OpItoF, r[in.Rs1])
		case guest.OpFtoi:
			r[in.Rd] = vex.EvalUnop(vex.OpFtoI, r[in.Rs1])
		case guest.OpLd8, guest.OpLd16, guest.OpLd32, guest.OpLd64:
			addr := r[in.Rs1] + imm
			if e.LoadHook != nil && e.hookable(pc) {
				e.LoadHook(t, addr, in.MemWidth(), pc)
			}
			r[in.Rd] = m.Mem.Load(addr, in.MemWidth())
		case guest.OpSt8, guest.OpSt16, guest.OpSt32, guest.OpSt64:
			addr := r[in.Rs1] + imm
			if e.StoreHook != nil && e.hookable(pc) {
				e.StoreHook(t, addr, in.MemWidth(), pc)
			}
			m.Mem.Store(addr, in.MemWidth(), r[in.Rs2])
		case guest.OpJmp:
			t.PC = uint64(uint32(in.Imm))
			return RunOK, nil
		case guest.OpBeq, guest.OpBne, guest.OpBlt, guest.OpBge, guest.OpBltu, guest.OpBgeu:
			if BranchTaken(in.Op, r[in.Rs1], r[in.Rs2]) {
				t.PC = uint64(uint32(in.Imm))
			} else {
				t.PC = next
			}
			return RunOK, nil
		case guest.OpJal:
			target := uint64(uint32(in.Imm))
			r[guest.LR] = next
			t.PushFrame(target, pc)
			t.PC = target
			return RunOK, nil
		case guest.OpJalr:
			target := r[in.Rs1]
			r[guest.LR] = next
			t.PushFrame(target, pc)
			t.PC = target
			return RunOK, nil
		case guest.OpRet:
			t.PopFrame()
			t.PC = r[guest.LR]
			if t.PC == ThreadExitAddr {
				return m.ExitThread(t), nil
			}
			return RunOK, nil
		case guest.OpHcall:
			t.PC = next
			return m.DoHostCall(t, in.Imm), nil
		case guest.OpCreq:
			t.PC = next
			m.DoClientRequest(t, in.Imm)
			return RunOK, nil
		case guest.OpHlt:
			t.Regs[guest.R0] = r[in.Rs1]
			t.PC = next
			return m.ExitThread(t), nil
		default:
			return RunOK, fmt.Errorf("vm: unimplemented opcode %s", in.Op)
		}
		pc = next
		t.PC = pc
	}
}

// BranchTaken evaluates a conditional-branch predicate; shared with the DBI
// translator so both engines agree.
func BranchTaken(op guest.Opcode, a, b uint64) bool {
	switch op {
	case guest.OpBeq:
		return a == b
	case guest.OpBne:
		return a != b
	case guest.OpBlt:
		return int64(a) < int64(b)
	case guest.OpBge:
		return int64(a) >= int64(b)
	case guest.OpBltu:
		return a < b
	case guest.OpBgeu:
		return a >= b
	}
	panic(fmt.Sprintf("vm: not a branch: %s", op))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
