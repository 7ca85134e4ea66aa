package vex

// This file is the superblock compilation stage: after translation, tool
// instrumentation and Optimize, a SuperBlock is lowered once into a flat
// array of pre-resolved micro-ops (UOp) that an execution engine can run
// without re-interpreting expressions. It is the analog of Valgrind's
// instruction selection step — the reason translated code runs from a code
// cache instead of being re-walked on every execution.
//
// The lowering resolves, at compile time, everything the IR interpreter
// decides per execution:
//
//   - operand kinds: every const/tmp/reg operand choice is fused into the
//     micro-op code (UBinTC = "binop of a temp and a constant"), so the
//     engine reads operands with direct indexed loads instead of a
//     per-operand kind switch;
//   - operation dispatch: binary and unary operations index the op tables
//     (binFns/unFns) by their Op instead of going through the EvalBinop
//     switch on every execution;
//   - dirty-call arguments: helper arguments are pre-resolved into CArg
//     descriptors, and the helper func pointer is carried in the block's
//     call table, which the op indexes;
//   - constant folding of anything Optimize left behind (tool-inserted
//     IR): const⊕const binops, const unops and never-taken exits
//     disappear here;
//   - the temp arena size is fixed per block (NFrame), including any
//     scratch temps the lowering itself synthesizes.

import "fmt"

// BinFn is a pre-bound binary operation (an entry of the op table).
type BinFn func(a, b uint64) uint64

// UnFn is a pre-bound unary operation.
type UnFn func(a uint64) uint64

// binFns is the binary op table. Entries must agree bit-for-bit with
// EvalBinop (property-tested in compile_test.go); the table exists so a
// compiled micro-op calls one direct func instead of re-entering the switch
// per execution. It has an entry for every Op value, so indexing it by one
// needs no bounds check; the entries of non-binary ops are nil.
var binFns = [256]BinFn{
	OpAdd: func(a, b uint64) uint64 { return a + b },
	OpSub: func(a, b uint64) uint64 { return a - b },
	OpMul: func(a, b uint64) uint64 { return a * b },
	OpDiv: func(a, b uint64) uint64 {
		if b == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	},
	OpRem: func(a, b uint64) uint64 {
		if b == 0 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	},
	OpAnd:    func(a, b uint64) uint64 { return a & b },
	OpOr:     func(a, b uint64) uint64 { return a | b },
	OpXor:    func(a, b uint64) uint64 { return a ^ b },
	OpShl:    func(a, b uint64) uint64 { return a << (b & 63) },
	OpShr:    func(a, b uint64) uint64 { return a >> (b & 63) },
	OpSar:    func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) },
	OpCmpEQ:  func(a, b uint64) uint64 { return b2u(a == b) },
	OpCmpNE:  func(a, b uint64) uint64 { return b2u(a != b) },
	OpCmpLT:  func(a, b uint64) uint64 { return b2u(int64(a) < int64(b)) },
	OpCmpGE:  func(a, b uint64) uint64 { return b2u(int64(a) >= int64(b)) },
	OpCmpLTU: func(a, b uint64) uint64 { return b2u(a < b) },
	OpCmpGEU: func(a, b uint64) uint64 { return b2u(a >= b) },
	OpFAdd:   func(a, b uint64) uint64 { return f2u(u2f(a) + u2f(b)) },
	OpFSub:   func(a, b uint64) uint64 { return f2u(u2f(a) - u2f(b)) },
	OpFMul:   func(a, b uint64) uint64 { return f2u(u2f(a) * u2f(b)) },
	OpFDiv:   func(a, b uint64) uint64 { return f2u(u2f(a) / u2f(b)) },
	OpFCmpLT: func(a, b uint64) uint64 { return b2u(u2f(a) < u2f(b)) },
	OpFCmpLE: func(a, b uint64) uint64 { return b2u(u2f(a) <= u2f(b)) },
	OpFCmpEQ: func(a, b uint64) uint64 { return b2u(u2f(a) == u2f(b)) },
}

// unFns is the unary op table, indexed like binFns.
var unFns = [256]UnFn{
	OpNot:  func(a uint64) uint64 { return ^a },
	OpNeg:  func(a uint64) uint64 { return -a },
	OpItoF: func(a uint64) uint64 { return f2u(float64(int64(a))) },
	OpFtoI: func(a uint64) uint64 { return uint64(int64(u2f(a))) },
}

// BinopFn returns the pre-bound func for a binary operation, or nil when op
// is not binary.
func BinopFn(op Op) BinFn { return binFns[op] }

// UnopFn returns the pre-bound func for a unary operation, or nil.
func UnopFn(op Op) UnFn { return unFns[op] }

// UCode is a micro-op code: the statement kind fused with the pre-resolved
// operand kinds (T = temp, C = constant, R = guest register).
type UCode uint8

// Micro-op codes. There is no IMark micro-op: instruction counting is folded
// into the exit ops (each carries the number of guest instructions started
// before it is taken, in Dst) and fault attribution uses the PCs/ICs side
// tables, so the hot loop never dispatches a counter bump.
const (
	// Moves into a temp: tmps[Dst] = Imm / tmps[A] / regs[A].
	UMovC UCode = iota
	UMovT
	UMovR
	// Guest register writes: regs[Dst] = Imm / tmps[A] / regs[A].
	UPutC
	UPutT
	UPutR
	// Binops: tmps[Dst] = Bin(x, y); the code names the operand sources in
	// order (first operand, second operand). The constant operand, when
	// present, is Imm. Const⊕const is folded at compile time.
	UBinTT
	UBinTC
	UBinTR
	UBinCT
	UBinCR
	UBinRT
	UBinRC
	UBinRR
	// Unops: tmps[Dst] = Un(x). Const operands fold at compile time.
	UUnT
	UUnR
	// Loads: tmps[Dst] = LD[Wd](addr).
	ULdT
	ULdC
	ULdR
	// Stores: ST[Wd](addr) = data; addr source then data source. A
	// const/const store is lowered via a scratch temp (UMovC + UStTC is
	// never needed: UMovC + UStTC — see compileStore).
	UStTT
	UStTC
	UStTR
	UStCT
	UStCR
	UStRT
	UStRC
	UStRR
	// UExitT/UExitR: if (tmps[A] / regs[A]) != 0 goto Imm. Dst carries the
	// number of guest instructions retired when the exit is taken.
	UExitT
	UExitR
	// UJmp: unconditional goto Imm (a compile-time always-taken exit).
	// Dst carries the retired-instruction count like the exits.
	UJmp
	// UDirty: helper call with pre-resolved arguments, the call Calls[A]
	// of its Compiled.
	UDirty

	// Fused micro-ops. The peephole pass in Compile merges the multi-op
	// sequences the translator emits for single guest instructions — a
	// computation into a temp followed by a read of that temp — into one
	// dispatch. These carry the same semantics as the sequences they
	// replace, executed atomically within the op. A fused op that writes a
	// register also writes its temp, so the temp may have other readers.

	// UPutBin**: tmps[Dst] = Bin(x, y); regs[Wd] = tmps[Dst] — a binop
	// whose result temp fed a register write. Operand sources mirror
	// UBin**.
	UPutBinTT
	UPutBinTC
	UPutBinTR
	UPutBinCT
	UPutBinCR
	UPutBinRT
	UPutBinRC
	UPutBinRR
	// UPutUnT/UPutUnR: tmps[Dst] = Un(x); regs[Wd] = tmps[Dst].
	UPutUnT
	UPutUnR
	// ULdPRI: tmps[Dst] = LD[Wd](regs[A] + Imm); regs[B] = tmps[Dst] —
	// the full base+offset load-to-register pattern. ULdPT and ULdPC are
	// the same with the address in tmps[A] or Imm. ULdTRI loads from
	// regs[A] + Imm into the temp alone (no register write followed).
	ULdPRI
	ULdPT
	ULdPC
	ULdTRI
	// UPutLdC/UPutLdPC: regs[A] = Imm, then ULdC/ULdPC — a constant put
	// to a register and then loaded through, the deref of a global
	// pointer's address. The op takes the load's instruction, so a fault
	// sees the register written.
	UPutLdC
	UPutLdPC
	// UStRIR/UStRIT: ST[Wd](regs[A] + Imm) = regs[B] / tmps[B].
	UStRIR
	UStRIT
	// UExitBin**: if Bin(x, y) != 0 goto Imm — a compare feeding a
	// conditional exit. Only non-const operand shapes exist (a const
	// operand would need a second immediate). Dst carries the retired-
	// instruction count like plain exits.
	UExitBinTT
	UExitBinTR
	UExitBinRT
	UExitBinRR
)

// UOp is one pre-lowered micro-op. Field use depends on Code; unused fields
// are zero. Imm doubles as the constant operand, the IMark address and the
// jump target — no code uses two of those at once. An op holds no pointers,
// so an op array is 24 bytes an op and the garbage collector never scans
// it: a binop or unop applies the op table entry of its Op (Bin, Un), and
// a dirty call lives in its Compiled's Calls.
type UOp struct {
	Code UCode
	Wd   uint8
	// Op is the IR operation a binop or unop micro-op was lowered from:
	// Bin and Un apply it, and the peephole fuser reads it to recognize
	// address arithmetic.
	Op   Op
	Dst  uint32
	A, B uint32
	Imm  uint64
}

// Bin applies the binary operation of a binop micro-op.
func (u *UOp) Bin(a, b uint64) uint64 { return binFns[u.Op](a, b) }

// Un applies the unary operation of a unop micro-op.
func (u *UOp) Un(a uint64) uint64 { return unFns[u.Op](a) }

// DirtyOp is the pre-bound form of a Dirty helper call.
type DirtyOp struct {
	Name string
	Fn   DirtyFn
	Args []CArg
	// Meta carries the helper's parameters from the source DirtyCall, so a
	// cross-core-adopted block can re-bind an equivalent helper (the
	// closure in Fn is bound to one core).
	Meta []uint64
	// Tmp is the result temp; HasTmp false means the result is dropped.
	Tmp    uint32
	HasTmp bool
	// InstrsBefore is the number of guest instructions started before this
	// call. The engine credits the instruction counters up to here before
	// invoking the helper, so tools observe the same counts the IR
	// interpreter would show them.
	InstrsBefore uint32
}

// CArg is a pre-resolved dirty-call argument.
type CArg struct {
	Kind ExprKind
	Idx  uint32
	Imm  uint64
}

// Compiled is a superblock lowered to micro-ops: the unit held in the
// compiled-translation cache and executed by the compiled engine.
type Compiled struct {
	// GuestAddr is the guest entry address of the superblock.
	GuestAddr uint64
	// Ops is the micro-op array.
	Ops []UOp
	// Calls holds the block's dirty calls in program order; a UDirty op's
	// A indexes it. It is the only part of the code bound to one core's
	// tool instance: an adopting core shares Ops, PCs and ICs and rebinds
	// a copy of Calls.
	Calls []DirtyOp
	// PCs[i] is the guest PC of the instruction op i belongs to, and
	// ICs[i] the number of guest instructions started up to and including
	// that op. Both are fault-path-only: the engine reads them when a
	// panic unwinds mid-block, to attribute the fault to the precise guest
	// instruction and to flush the instruction counters — the hot loop
	// never touches them.
	PCs []uint64
	ICs []uint32
	// NFrame is the temp-arena size the block needs (NTemps plus scratch
	// temps synthesized during lowering).
	NFrame uint32
	// NInstrs counts the guest instructions (IMarks) in the block.
	NInstrs int
	// NStmts is the statement count of the instrumented IR the block was
	// lowered from, which the cache footprint model charges for.
	NStmts int
	// LastPC is the PC of the block's final guest instruction: the call
	// site recorded on JKCall frames, and the attribution point for
	// faults raised by the block-end transfer.
	LastPC uint64
	// Fall-through edge: kind (const/tmp/reg), constant value or index,
	// jump kind and Aux exactly as on the SuperBlock.
	NextKind ExprKind
	NextImm  uint64
	NextIdx  uint32
	NextJK   JumpKind
	Aux      int32
}

// compiler accumulates state during one lowering.
type compiler struct {
	out    *Compiled
	nframe uint32
	// pc/ic track the guest instruction the statements being lowered
	// belong to, for the PCs/ICs side tables.
	pc uint64
	ic uint32
	// uses[t] is the number of statement-level reads of temp t (including
	// dirty args and the block's Next). The peephole fuser only folds a
	// temp away when it has exactly one reader.
	uses []uint32
	// ops, pcs and ics are the lowered micro-ops and their side tables,
	// and calls and cargs the dirty calls and their arguments, in scratch
	// buffers until Compile copies them out.
	ops   []UOp
	pcs   []uint64
	ics   []uint32
	calls []DirtyOp
	cargs []CArg
}

// scratch allocates a compiler-synthesized temp.
func (cc *compiler) scratch() uint32 {
	t := cc.nframe
	cc.nframe++
	return t
}

// emit appends a micro-op, recording its instruction PC and count.
func (cc *compiler) emit(u UOp) {
	cc.ops = append(cc.ops, u)
	cc.pcs = append(cc.pcs, cc.pc)
	cc.ics = append(cc.ics, cc.ic)
}

// singleUse reports whether temp t has exactly one statement-level reader.
func (cc *compiler) singleUse(t uint32) bool {
	return int(t) < len(cc.uses) && cc.uses[t] == 1
}

// countUses fills cc.uses from the statement list.
func (cc *compiler) countUses(sb *SuperBlock) {
	cnt := func(e Expr) {
		if e.Kind == KindRdTmp && uint32(e.Tmp) < sb.NTemps {
			cc.uses[e.Tmp]++
		}
	}
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		switch s.Kind {
		case SWrTmpExpr, SWrTmpUnop, SWrTmpLoad, SPutReg, SExit:
			cnt(s.E1)
		case SWrTmpBinop, SStore:
			cnt(s.E1)
			cnt(s.E2)
		case SDirty:
			for _, a := range sb.Calls[s.Call].Args {
				cnt(a)
			}
		}
	}
	cnt(sb.Next)
}

// srcCode classifies an operand expression into the T/C/R triple used to
// select the fused code, returning the index (temp or register number) and
// the immediate.
func src(e Expr) (k ExprKind, idx uint32, imm uint64) {
	switch e.Kind {
	case KindConst:
		return KindConst, 0, e.Const
	case KindRdTmp:
		return KindRdTmp, uint32(e.Tmp), 0
	default:
		return KindGetReg, uint32(e.Reg), 0
	}
}

// Compile lowers a superblock into micro-ops. The input must be well-formed
// (Validate-clean); malformed statements produce an error, mirroring the
// interpreter's runtime checks at compile time instead. It runs on a fresh
// Scratch; a caller that compiles block after block keeps one Scratch and
// calls its Compile method instead.
func Compile(sb *SuperBlock) (*Compiled, error) {
	return new(Scratch).Compile(sb)
}

// Compile lowers sb into micro-ops like the package-level Compile. Use
// counts and the op buffers live in x; the result owns right-sized copies of
// its ops, side tables and calls, so it shares nothing with x.
func (x *Scratch) Compile(sb *SuperBlock) (*Compiled, error) {
	cc := &compiler{
		out: &Compiled{
			GuestAddr: sb.GuestAddr,
			NStmts:    len(sb.Stmts),
			NextJK:    sb.NextJK,
			Aux:       sb.Aux,
			LastPC:    sb.GuestAddr,
		},
		nframe: sb.NTemps,
		pc:     sb.GuestAddr,
		uses:   zeroed(x.uses, int(sb.NTemps)),
		ops:    x.ops[:0],
		pcs:    x.pcs[:0],
		ics:    x.ics[:0],
		calls:  x.calls[:0],
		cargs:  x.cargs[:0],
	}
	cc.countUses(sb)
	out := cc.out
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		switch s.Kind {
		case SIMark:
			// No micro-op: exits carry retired-instruction counts and
			// the PCs/ICs tables carry fault attribution.
			out.NInstrs++
			out.LastPC = s.Addr
			cc.pc = s.Addr
			cc.ic++
		case SWrTmpExpr:
			cc.compileMov(uint32(s.Tmp), s.E1)
		case SWrTmpBinop:
			if err := cc.compileBinop(s); err != nil {
				return nil, err
			}
		case SWrTmpUnop:
			if err := cc.compileUnop(s); err != nil {
				return nil, err
			}
		case SWrTmpLoad:
			k, idx, imm := src(s.E1)
			code := ULdT
			switch k {
			case KindConst:
				code = ULdC
			case KindGetReg:
				code = ULdR
			}
			cc.emit(UOp{Code: code, Wd: uint8(s.Wd), Dst: uint32(s.Tmp), A: idx, Imm: imm})
		case SStore:
			cc.compileStore(s)
		case SPutReg:
			k, idx, imm := src(s.E1)
			switch k {
			case KindConst:
				cc.emit(UOp{Code: UPutC, Dst: uint32(s.Reg), Imm: imm})
			case KindRdTmp:
				cc.emit(UOp{Code: UPutT, Dst: uint32(s.Reg), A: idx})
			default:
				cc.emit(UOp{Code: UPutR, Dst: uint32(s.Reg), A: idx})
			}
		case SExit:
			k, idx, imm := src(s.E1)
			switch k {
			case KindConst:
				if imm == 0 {
					// Never taken: drop.
					continue
				}
				// Always taken: an unconditional jump. Statements
				// after it are unreachable; they are still lowered
				// (harmless) to keep indices simple.
				cc.emit(UOp{Code: UJmp, Dst: cc.ic, Imm: s.Target})
			case KindRdTmp:
				cc.emit(UOp{Code: UExitT, A: idx, Dst: cc.ic, Imm: s.Target})
			default:
				cc.emit(UOp{Code: UExitR, A: idx, Dst: cc.ic, Imm: s.Target})
			}
		case SDirty:
			if err := cc.compileDirty(sb, s); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("vex: compile: unknown statement kind %d", s.Kind)
		}
	}
	// Fall-through edge.
	k, idx, imm := src(sb.Next)
	out.NextKind = k
	out.NextIdx = idx
	out.NextImm = imm
	cc.fuse()
	out.NFrame = cc.nframe
	out.Ops = copyOut(cc.ops)
	out.PCs = copyOut(cc.pcs)
	out.ICs = copyOut(cc.ics)
	if len(cc.calls) > 0 {
		// One array holds every call's arguments, in call order.
		out.Calls = copyOut(cc.calls)
		args := copyOut(cc.cargs)
		for i := range out.Calls {
			d := &out.Calls[i]
			n := len(d.Args)
			d.Args, args = args[:n:n], args[n:]
		}
	}
	x.uses, x.ops, x.pcs, x.ics = cc.uses, cc.ops, cc.pcs, cc.ics
	x.calls, x.cargs = cc.calls, cc.cargs
	return out, nil
}

// copyOut returns a right-sized copy of a scratch buffer (non-nil even when
// empty).
func copyOut[T any](s []T) []T {
	return append(make([]T, 0, len(s)), s...)
}

// fuse is the peephole pass: it merges the adjacent micro-op sequences the
// translator produces for single guest instructions, and a constant put
// followed by a load through it, into one fused micro-op. A temp is folded
// away only when it has a single reader; a register write of a temp with
// further readers fuses into an op that writes both. Runs in place (the
// output is never longer than the input).
func (cc *compiler) fuse() {
	ops, pcs, ics := cc.ops, cc.pcs, cc.ics
	// same reports whether op i+k exists and belongs to op i's guest
	// instruction.
	same := func(i, k int) bool { return i+k < len(ops) && ics[i] == ics[i+k] }
	// putOf returns the register op i+1 writes, when it is a UPutT of temp
	// t in op i's instruction.
	putOf := func(i int, t uint32) (uint32, bool) {
		if same(i, 1) && ops[i+1].Code == UPutT && ops[i+1].A == t {
			return ops[i+1].Dst, true
		}
		return 0, false
	}
	j := 0
	for i := 0; i < len(ops); {
		u := &ops[i]
		var fused UOp
		var pre *UOp // an op the match moves ahead of the fused one
		n := 0       // ops consumed by the match, 0 = no match

		if u.Code == UBinRC && u.Op == OpAdd && cc.singleUse(u.Dst) && same(i, 1) {
			// Base+offset address arithmetic feeding a load or store.
			switch v := &ops[i+1]; {
			case v.Code == ULdT && v.A == u.Dst:
				fused = UOp{Code: ULdTRI, Wd: v.Wd, Dst: v.Dst, A: u.A, Imm: u.Imm}
				n = 2
				if r, ok := putOf(i+1, v.Dst); ok {
					fused.Code, fused.B = ULdPRI, r
					n = 3
				}
			case v.Code == UStTR && v.A == u.Dst:
				fused = UOp{Code: UStRIR, Wd: v.Wd, A: u.A, B: v.B, Imm: u.Imm}
				n = 2
			case v.Code == UStTT && v.A == u.Dst:
				fused = UOp{Code: UStRIT, Wd: v.Wd, A: u.A, B: v.B, Imm: u.Imm}
				n = 2
			}
		}
		if u.Code == UPutC && i+1 < len(ops) && ops[i+1].Code == ULdC && ops[i+1].Imm == u.Imm {
			// A constant put and then loaded through: the load's
			// instruction may be the next one.
			v := &ops[i+1]
			fused = UOp{Code: UPutLdC, Wd: v.Wd, Dst: v.Dst, A: u.Dst, Imm: u.Imm}
			n = 2
			if r, ok := putOf(i+1, v.Dst); ok {
				fused.Code, fused.B = UPutLdPC, r
				n = 3
			}
			i++ // the fused op takes the load's PC and count
			n--
		}
		if n == 0 {
			switch u.Code {
			case ULdR, ULdT, ULdC:
				// A load straight to a register.
				if r, ok := putOf(i, u.Dst); ok {
					fused = *u
					fused.B = r
					switch u.Code {
					case ULdR:
						fused.Code = ULdPRI // zero offset
					case ULdT:
						fused.Code = ULdPT
					default:
						fused.Code = ULdPC
					}
					n = 2
				}
			case UBinTT, UBinTC, UBinTR, UBinCT, UBinCR, UBinRT, UBinRC, UBinRR:
				if r, ok := putOf(i, u.Dst); ok {
					fused = *u
					fused.Code = UPutBinTT + (u.Code - UBinTT)
					fused.Wd = uint8(r)
					n = 2
					break
				}
				// A compare feeding a conditional exit. The flush
				// call instrumentation puts before an exit may sit
				// between the two when the compare reads only temps,
				// which no call can change.
				ec := exitBinCode(u.Code)
				if ec == 0 || !cc.singleUse(u.Dst) {
					break
				}
				k := 1
				if u.Code == UBinTT && same(i, 2) && ops[i+1].Code == UDirty {
					pre, k = &ops[i+1], 2
				}
				if !same(i, k) || ops[i+k].Code != UExitT || ops[i+k].A != u.Dst {
					pre = nil
					break
				}
				v := &ops[i+k]
				fused = UOp{Code: ec, A: u.A, B: u.B, Op: u.Op, Dst: v.Dst, Imm: v.Imm}
				n = k + 1
			case UUnT, UUnR:
				if r, ok := putOf(i, u.Dst); ok {
					fused = *u
					fused.Code = UPutUnT + (u.Code - UUnT)
					fused.Wd = uint8(r)
					n = 2
				}
			}
		}

		if n == 0 {
			ops[j], pcs[j], ics[j] = ops[i], pcs[i], ics[i]
			j++
			i++
			continue
		}
		if pre != nil {
			ops[j], pcs[j], ics[j] = *pre, pcs[i], ics[i]
			j++
		}
		ops[j], pcs[j], ics[j] = fused, pcs[i], ics[i]
		j++
		i += n
	}
	cc.ops = ops[:j]
	cc.pcs = pcs[:j]
	cc.ics = ics[:j]
}

// exitBinCode returns the fused compare-and-exit code for a binop code, or
// zero for the shapes with a constant operand.
func exitBinCode(c UCode) UCode {
	switch c {
	case UBinTT:
		return UExitBinTT
	case UBinTR:
		return UExitBinTR
	case UBinRT:
		return UExitBinRT
	case UBinRR:
		return UExitBinRR
	}
	return 0
}

// compileMov lowers t = e.
func (cc *compiler) compileMov(dst uint32, e Expr) {
	k, idx, imm := src(e)
	switch k {
	case KindConst:
		cc.emit(UOp{Code: UMovC, Dst: dst, Imm: imm})
	case KindRdTmp:
		cc.emit(UOp{Code: UMovT, Dst: dst, A: idx})
	default:
		cc.emit(UOp{Code: UMovR, Dst: dst, A: idx})
	}
}

// compileBinop lowers t = op(a, b), folding const⊕const.
func (cc *compiler) compileBinop(s *Stmt) error {
	if BinopFn(s.Op) == nil {
		return fmt.Errorf("vex: compile: bad binary op %s", s.Op)
	}
	ka, ia, ca := src(s.E1)
	kb, ib, cb := src(s.E2)
	dst := uint32(s.Tmp)
	if ka == KindConst && kb == KindConst {
		cc.emit(UOp{Code: UMovC, Dst: dst, Imm: EvalBinop(s.Op, ca, cb)})
		return nil
	}
	u := UOp{Dst: dst, A: ia, B: ib, Imm: ca | cb, Op: s.Op}
	switch {
	case ka == KindRdTmp && kb == KindRdTmp:
		u.Code = UBinTT
	case ka == KindRdTmp && kb == KindConst:
		u.Code = UBinTC
	case ka == KindRdTmp && kb == KindGetReg:
		u.Code = UBinTR
	case ka == KindConst && kb == KindRdTmp:
		u.Code = UBinCT
	case ka == KindConst && kb == KindGetReg:
		u.Code = UBinCR
	case ka == KindGetReg && kb == KindRdTmp:
		u.Code = UBinRT
	case ka == KindGetReg && kb == KindConst:
		u.Code = UBinRC
	default: // reg, reg
		u.Code = UBinRR
	}
	cc.emit(u)
	return nil
}

// compileUnop lowers t = op(a), folding const operands.
func (cc *compiler) compileUnop(s *Stmt) error {
	if UnopFn(s.Op) == nil {
		return fmt.Errorf("vex: compile: bad unary op %s", s.Op)
	}
	k, idx, imm := src(s.E1)
	dst := uint32(s.Tmp)
	switch k {
	case KindConst:
		cc.emit(UOp{Code: UMovC, Dst: dst, Imm: EvalUnop(s.Op, imm)})
	case KindRdTmp:
		cc.emit(UOp{Code: UUnT, Dst: dst, A: idx, Op: s.Op})
	default:
		cc.emit(UOp{Code: UUnR, Dst: dst, A: idx, Op: s.Op})
	}
	return nil
}

// compileDirty lowers the dirty statement s of sb: its call, arguments
// pre-resolved, joins the block's call table, and the op indexes it. The
// call's Args view the scratch argument buffer until Compile copies them
// out.
func (cc *compiler) compileDirty(sb *SuperBlock, s *Stmt) error {
	c := &sb.Calls[s.Call]
	if c.Fn == nil {
		return fmt.Errorf("vex: compile: dirty %q has nil helper", c.Name)
	}
	k := len(cc.cargs)
	for _, a := range c.Args {
		ka, idx, imm := src(a)
		cc.cargs = append(cc.cargs, CArg{Kind: ka, Idx: idx, Imm: imm})
	}
	d := DirtyOp{Name: c.Name, Fn: c.Fn, Args: cc.cargs[k:], Meta: c.Meta, InstrsBefore: cc.ic}
	if s.Tmp != NoTemp {
		d.Tmp = uint32(s.Tmp)
		d.HasTmp = true
	}
	cc.emit(UOp{Code: UDirty, A: uint32(len(cc.calls))})
	cc.calls = append(cc.calls, d)
	return nil
}

// compileStore lowers ST(addr) = data. The one combination the fused codes
// cannot carry — both operands constant, two immediates — goes through a
// synthesized scratch temp.
func (cc *compiler) compileStore(s *Stmt) {
	ka, ia, ca := src(s.E1)
	kb, ib, cb := src(s.E2)
	wd := uint8(s.Wd)
	if ka == KindConst && kb == KindConst {
		t := cc.scratch()
		cc.emit(UOp{Code: UMovC, Dst: t, Imm: cb})
		cc.emit(UOp{Code: UStCT, Wd: wd, Imm: ca, B: t})
		return
	}
	u := UOp{Wd: wd, A: ia, B: ib, Imm: ca | cb}
	switch {
	case ka == KindRdTmp && kb == KindRdTmp:
		u.Code = UStTT
	case ka == KindRdTmp && kb == KindConst:
		u.Code = UStTC
	case ka == KindRdTmp && kb == KindGetReg:
		u.Code = UStTR
	case ka == KindConst && kb == KindRdTmp:
		u.Code = UStCT
	case ka == KindConst && kb == KindGetReg:
		u.Code = UStCR
	case ka == KindGetReg && kb == KindRdTmp:
		u.Code = UStRT
	case ka == KindGetReg && kb == KindConst:
		u.Code = UStRC
	default:
		u.Code = UStRR
	}
	cc.emit(u)
}
