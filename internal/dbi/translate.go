package dbi

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/vex"
)

// MaxBlockInstrs caps the number of guest instructions per superblock.
const MaxBlockInstrs = 64

// Translate decodes the guest basic block starting at addr and lowers it to
// flat VEX-like IR. Conditional branches end the block (taken edge as an
// Exit statement, fall-through as Next); so do unconditional jumps, calls,
// returns, host calls and client requests. The scheduler's preemption
// slices are counted in blocks, so block boundaries are part of every
// seeded schedule. Blind superblock extension through unconditional jumps
// was removed: it lost on the Table I suite both in execution and end to
// end, and it changed every schedule it touched.
func Translate(im *guest.Image, addr uint64) (*vex.SuperBlock, error) {
	// Most guest instructions lower to 2-3 statements (IMark + compute +
	// PutReg) and most blocks are a handful of instructions; start the list
	// at a typical short block and let append grow the long tail.
	sb := &vex.SuperBlock{Stmts: make([]vex.Stmt, 0, 16)}
	if err := translateInto(sb, im, addr); err != nil {
		return nil, err
	}
	return sb, nil
}

// translateInto is Translate writing into an empty block the caller
// provides, appending to its statement array: a core passes a scratch block
// from its arena.
func translateInto(sb *vex.SuperBlock, im *guest.Image, addr uint64) error {
	sb.GuestAddr = addr
	pc := addr
	for n := 0; n < MaxBlockInstrs; n++ {
		in, err := im.FetchInstr(pc)
		if err != nil {
			return err
		}
		sb.IMark(pc, guest.InstrBytes)
		next := pc + guest.InstrBytes
		imm := uint64(int64(in.Imm))
		reg := vex.RegE

		switch in.Op {
		case guest.OpNop:
			// nothing
		case guest.OpLdi:
			sb.PutReg(in.Rd, vex.ConstE(imm))
		case guest.OpLdih:
			lo := sb.WrTmpBinop(vex.OpAnd, reg(in.Rd), vex.ConstE(0xffffffff))
			hi := sb.WrTmpBinop(vex.OpOr, vex.TmpE(lo), vex.ConstE(uint64(uint32(in.Imm))<<32))
			sb.PutReg(in.Rd, vex.TmpE(hi))
		case guest.OpMov:
			sb.PutReg(in.Rd, reg(in.Rs1))
		case guest.OpAdd, guest.OpSub, guest.OpMul, guest.OpDiv, guest.OpRem,
			guest.OpAnd, guest.OpOr, guest.OpXor, guest.OpShl, guest.OpShr, guest.OpSar,
			guest.OpSeq, guest.OpSne, guest.OpSlt, guest.OpSge, guest.OpSltu, guest.OpSgeu,
			guest.OpFadd, guest.OpFsub, guest.OpFmul, guest.OpFdiv,
			guest.OpFlt, guest.OpFle, guest.OpFeq:
			t := sb.WrTmpBinop(aluOp(in.Op), reg(in.Rs1), reg(in.Rs2))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpAddi:
			t := sb.WrTmpBinop(vex.OpAdd, reg(in.Rs1), vex.ConstE(imm))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpMuli:
			t := sb.WrTmpBinop(vex.OpMul, reg(in.Rs1), vex.ConstE(imm))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpAndi:
			t := sb.WrTmpBinop(vex.OpAnd, reg(in.Rs1), vex.ConstE(imm))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpOri:
			t := sb.WrTmpBinop(vex.OpOr, reg(in.Rs1), vex.ConstE(imm))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpShli:
			t := sb.WrTmpBinop(vex.OpShl, reg(in.Rs1), vex.ConstE(imm&63))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpShri:
			t := sb.WrTmpBinop(vex.OpShr, reg(in.Rs1), vex.ConstE(imm&63))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpItof:
			t := sb.WrTmpUnop(vex.OpItoF, reg(in.Rs1))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpFtoi:
			t := sb.WrTmpUnop(vex.OpFtoI, reg(in.Rs1))
			sb.PutReg(in.Rd, vex.TmpE(t))
		case guest.OpLd8, guest.OpLd16, guest.OpLd32, guest.OpLd64:
			a := addrExpr(sb, in)
			v := sb.WrTmpLoad(vex.Width(in.MemWidth()), a)
			sb.PutReg(in.Rd, vex.TmpE(v))
		case guest.OpSt8, guest.OpSt16, guest.OpSt32, guest.OpSt64:
			a := addrExpr(sb, in)
			sb.Store(vex.Width(in.MemWidth()), a, reg(in.Rs2))
		case guest.OpJmp:
			sb.Next = vex.ConstE(uint64(uint32(in.Imm)))
			sb.NextJK = vex.JKBoring
			return nil
		case guest.OpBeq, guest.OpBne, guest.OpBlt, guest.OpBge, guest.OpBltu, guest.OpBgeu:
			g := sb.WrTmpBinop(branchOp(in.Op), reg(in.Rs1), reg(in.Rs2))
			sb.Exit(vex.TmpE(g), uint64(uint32(in.Imm)), vex.JKBoring)
			sb.Next = vex.ConstE(next)
			sb.NextJK = vex.JKBoring
			return nil
		case guest.OpJal:
			sb.PutReg(guest.LR, vex.ConstE(next))
			sb.Next = vex.ConstE(uint64(uint32(in.Imm)))
			sb.NextJK = vex.JKCall
			return nil
		case guest.OpJalr:
			target := sb.WrTmpExpr(reg(in.Rs1))
			sb.PutReg(guest.LR, vex.ConstE(next))
			sb.Next = vex.TmpE(target)
			sb.NextJK = vex.JKCall
			return nil
		case guest.OpRet:
			sb.Next = vex.RegE(guest.LR)
			sb.NextJK = vex.JKRet
			return nil
		case guest.OpHcall:
			sb.Next = vex.ConstE(next)
			sb.NextJK = vex.JKHostCall
			sb.Aux = in.Imm
			return nil
		case guest.OpCreq:
			sb.Next = vex.ConstE(next)
			sb.NextJK = vex.JKClientReq
			sb.Aux = in.Imm
			return nil
		case guest.OpHlt:
			sb.PutReg(guest.R0, reg(in.Rs1))
			sb.Next = vex.ConstE(next)
			sb.NextJK = vex.JKExitThread
			return nil
		default:
			return fmt.Errorf("dbi: cannot translate opcode %s at 0x%x", in.Op, pc)
		}
		pc = next
	}
	// Block cap reached: fall through to the next address.
	sb.Next = vex.ConstE(pc)
	sb.NextJK = vex.JKBoring
	return nil
}

// addrExpr builds the effective-address expression rs1+imm for a memory op.
func addrExpr(sb *vex.SuperBlock, in guest.Instr) vex.Expr {
	if in.Imm == 0 {
		return vex.RegE(in.Rs1)
	}
	t := sb.WrTmpBinop(vex.OpAdd, vex.RegE(in.Rs1), vex.ConstE(uint64(int64(in.Imm))))
	return vex.TmpE(t)
}

func aluOp(op guest.Opcode) vex.Op {
	switch op {
	case guest.OpAdd:
		return vex.OpAdd
	case guest.OpSub:
		return vex.OpSub
	case guest.OpMul:
		return vex.OpMul
	case guest.OpDiv:
		return vex.OpDiv
	case guest.OpRem:
		return vex.OpRem
	case guest.OpAnd:
		return vex.OpAnd
	case guest.OpOr:
		return vex.OpOr
	case guest.OpXor:
		return vex.OpXor
	case guest.OpShl:
		return vex.OpShl
	case guest.OpShr:
		return vex.OpShr
	case guest.OpSar:
		return vex.OpSar
	case guest.OpSeq:
		return vex.OpCmpEQ
	case guest.OpSne:
		return vex.OpCmpNE
	case guest.OpSlt:
		return vex.OpCmpLT
	case guest.OpSge:
		return vex.OpCmpGE
	case guest.OpSltu:
		return vex.OpCmpLTU
	case guest.OpSgeu:
		return vex.OpCmpGEU
	case guest.OpFadd:
		return vex.OpFAdd
	case guest.OpFsub:
		return vex.OpFSub
	case guest.OpFmul:
		return vex.OpFMul
	case guest.OpFdiv:
		return vex.OpFDiv
	case guest.OpFlt:
		return vex.OpFCmpLT
	case guest.OpFle:
		return vex.OpFCmpLE
	case guest.OpFeq:
		return vex.OpFCmpEQ
	}
	panic(fmt.Sprintf("dbi: not an ALU op: %s", op))
}

func branchOp(op guest.Opcode) vex.Op {
	switch op {
	case guest.OpBeq:
		return vex.OpCmpEQ
	case guest.OpBne:
		return vex.OpCmpNE
	case guest.OpBlt:
		return vex.OpCmpLT
	case guest.OpBge:
		return vex.OpCmpGE
	case guest.OpBltu:
		return vex.OpCmpLTU
	case guest.OpBgeu:
		return vex.OpCmpGEU
	}
	panic(fmt.Sprintf("dbi: not a branch op: %s", op))
}
