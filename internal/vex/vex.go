// Package vex defines the intermediate representation (IR) used by the DBI
// framework, modelled after Valgrind's VEX IR.
//
// Guest basic blocks are translated into a SuperBlock: a list of typed,
// flattened statements over an infinite set of temporaries. "Flattened" means
// every operand of a statement or expression is either a constant or a
// temporary; memory loads never nest inside other expressions. Flat IR is what
// makes instrumentation trivial: a tool walks the statement list and inserts
// Dirty (helper-call) statements next to the Load/Store statements it cares
// about, exactly like a Valgrind tool plugin.
package vex

import (
	"fmt"
	"strings"
)

// Temp names an IR temporary (SSA-like virtual register).
type Temp uint32

// Width is an access width in bytes (1, 2, 4 or 8).
type Width uint8

// Valid access widths.
const (
	W8  Width = 1
	W16 Width = 2
	W32 Width = 4
	W64 Width = 8
)

// Op enumerates binary and unary IR operations. All operate on 64-bit
// values; float ops interpret the bits as IEEE-754 float64.
type Op uint8

// Binary and unary operations.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // signed
	OpRem // signed
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical
	OpSar // arithmetic
	OpCmpEQ
	OpCmpNE
	OpCmpLT // signed
	OpCmpGE // signed
	OpCmpLTU
	OpCmpGEU
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFCmpLT
	OpFCmpLE
	OpFCmpEQ
	OpNot  // unary: bitwise not
	OpNeg  // unary: arithmetic negate
	OpItoF // unary: int64 -> float64 bits
	OpFtoI // unary: float64 bits -> int64 (truncate)
)

var opNames = map[Op]string{
	OpAdd: "Add", OpSub: "Sub", OpMul: "Mul", OpDiv: "Div", OpRem: "Rem",
	OpAnd: "And", OpOr: "Or", OpXor: "Xor", OpShl: "Shl", OpShr: "Shr",
	OpSar: "Sar", OpCmpEQ: "CmpEQ", OpCmpNE: "CmpNE", OpCmpLT: "CmpLT",
	OpCmpGE: "CmpGE", OpCmpLTU: "CmpLTU", OpCmpGEU: "CmpGEU",
	OpFAdd: "FAdd", OpFSub: "FSub", OpFMul: "FMul", OpFDiv: "FDiv",
	OpFCmpLT: "FCmpLT", OpFCmpLE: "FCmpLE", OpFCmpEQ: "FCmpEQ",
	OpNot: "Not", OpNeg: "Neg", OpItoF: "ItoF", OpFtoI: "FtoI",
}

// String returns the mnemonic of the operation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsUnary reports whether the operation takes a single operand.
func (o Op) IsUnary() bool {
	switch o {
	case OpNot, OpNeg, OpItoF, OpFtoI:
		return true
	}
	return false
}

// Expr is a flat IR expression: a constant, a temporary read, or a guest
// register read. Compound expressions (Binop, Load...) appear only on the
// right-hand side of WrTmp statements.
type Expr struct {
	// Const value (KindConst), temp number (KindRdTmp) or guest register
	// number (KindGetReg). The wide fields come first so an Expr packs into
	// 16 bytes.
	Const uint64
	Tmp   Temp
	Kind  ExprKind
	Reg   uint8
}

// ExprKind discriminates Expr.
type ExprKind uint8

// Expression kinds.
const (
	KindConst ExprKind = iota
	KindRdTmp
	KindGetReg
)

// ConstE builds a constant expression.
func ConstE(v uint64) Expr { return Expr{Kind: KindConst, Const: v} }

// TmpE builds a temporary-read expression.
func TmpE(t Temp) Expr { return Expr{Kind: KindRdTmp, Tmp: t} }

// RegE builds a guest-register-read expression.
func RegE(r uint8) Expr { return Expr{Kind: KindGetReg, Reg: r} }

// String renders the expression.
func (e Expr) String() string {
	switch e.Kind {
	case KindConst:
		return fmt.Sprintf("0x%x", e.Const)
	case KindRdTmp:
		return fmt.Sprintf("t%d", e.Tmp)
	case KindGetReg:
		return fmt.Sprintf("GET(r%d)", e.Reg)
	}
	return "?"
}

// StmtKind discriminates Stmt.
type StmtKind uint8

// Statement kinds.
const (
	// SIMark marks the start of a translated guest instruction.
	SIMark StmtKind = iota
	// SWrTmpExpr assigns a flat expression to a temp: t = e.
	SWrTmpExpr
	// SWrTmpBinop assigns a binary operation to a temp: t = op(a, b).
	SWrTmpBinop
	// SWrTmpUnop assigns a unary operation to a temp: t = op(a).
	SWrTmpUnop
	// SWrTmpLoad assigns a memory load to a temp: t = LD<w>(addr).
	SWrTmpLoad
	// SStore writes memory: ST<w>(addr) = data.
	SStore
	// SPutReg writes a guest register: r = e.
	SPutReg
	// SExit conditionally leaves the block: if (guard) goto Target.
	SExit
	// SDirty calls a helper function with arbitrary side effects. Tools
	// inject these for instrumentation; the translator emits them for
	// host calls and client requests.
	SDirty
)

// Stmt is one flattened IR statement. Its byte-sized fields come first so a
// Stmt packs into 64 bytes, and it holds no pointers: a dirty call's helper,
// name and arguments live in its block's Calls. Appending, sweeping and
// copying statements is then a plain memory move the garbage collector
// never has to see.
type Stmt struct {
	Kind StmtKind

	// SIMark: length of the instruction (Addr holds its address).
	Len uint8

	// Operands. SWrTmpExpr uses E1. SWrTmpBinop uses Op, E1, E2.
	// SWrTmpUnop uses Op, E1. SWrTmpLoad uses Wd, E1 (address).
	// SStore uses Wd, E1 (address), E2 (data). SPutReg uses Reg, E1.
	// SExit uses E1 (guard), Target, JK. SDirty uses Call, and Tmp as the
	// optional result temp (NoTemp when unused).
	Op  Op
	Wd  Width
	Reg uint8
	JK  JumpKind

	// Destination temp for SWrTmp*.
	Tmp Temp

	// SDirty: index of the statement's call in its block's Calls.
	Call uint32

	E1, E2 Expr

	// SIMark: guest address of the instruction.
	Addr uint64

	// SExit: absolute guest target address.
	Target uint64
}

// NoTemp marks an unused result temp on a Dirty statement.
const NoTemp Temp = ^Temp(0)

// DirtyCall is the call an SDirty statement makes: the helper, its argument
// expressions, and the helper's serializable form. A closure bound to one
// core cannot cross core or process boundaries, but (Name, Meta, Args) can,
// letting an adopting core rebind an equivalent helper of its own (see the
// translation store).
type DirtyCall struct {
	Fn   DirtyFn
	Name string
	Args []Expr
	Meta []uint64
}

// DirtyFn is a helper called from IR execution. The ctx argument is the
// executing thread (opaque here to avoid an import cycle; the dbi package
// asserts it back). It returns a value stored into the statement's result
// temp, if any.
type DirtyFn func(ctx any, args []uint64) uint64

// JumpKind classifies how a block (or Exit) transfers control, mirroring
// VEX's IRJumpKind.
type JumpKind uint8

// Jump kinds.
const (
	JKBoring JumpKind = iota
	JKCall
	JKRet
	JKClientReq
	JKHostCall
	JKExitThread
)

// String renders the jump kind.
func (j JumpKind) String() string {
	switch j {
	case JKBoring:
		return "Boring"
	case JKCall:
		return "Call"
	case JKRet:
		return "Ret"
	case JKClientReq:
		return "ClientReq"
	case JKHostCall:
		return "HostCall"
	case JKExitThread:
		return "ExitThread"
	}
	return "?"
}

// SuperBlock is a single-entry, multiple-exit translation unit: the IR for
// one guest basic block, possibly extended with tool instrumentation.
type SuperBlock struct {
	// GuestAddr is the guest address of the first instruction.
	GuestAddr uint64
	// Stmts is the flattened statement list.
	Stmts []Stmt
	// NTemps is the number of temporaries used; temps are 0..NTemps-1.
	NTemps uint32
	// Next is the fall-through successor once the statement list is
	// exhausted (evaluated as an expression: constant or temp).
	Next Expr
	// NextJK is the jump kind of the fall-through edge.
	NextJK JumpKind
	// Aux carries the host-call number (JKHostCall) or client-request code
	// (JKClientReq) of the block-ending instruction.
	Aux int32
	// Calls holds the calls of the block's SDirty statements, which index
	// it by Stmt.Call.
	Calls []DirtyCall
}

// NewTemp allocates a fresh temporary.
func (sb *SuperBlock) NewTemp() Temp {
	t := Temp(sb.NTemps)
	sb.NTemps++
	return t
}

// Append adds a statement.
func (sb *SuperBlock) Append(s Stmt) { sb.Stmts = append(sb.Stmts, s) }

// IMark appends an instruction marker.
func (sb *SuperBlock) IMark(addr uint64, length uint8) {
	sb.Append(Stmt{Kind: SIMark, Addr: addr, Len: length})
}

// WrTmpExpr appends t = e and returns t.
func (sb *SuperBlock) WrTmpExpr(e Expr) Temp {
	t := sb.NewTemp()
	sb.Append(Stmt{Kind: SWrTmpExpr, Tmp: t, E1: e})
	return t
}

// WrTmpBinop appends t = op(a, b) and returns t.
func (sb *SuperBlock) WrTmpBinop(op Op, a, b Expr) Temp {
	t := sb.NewTemp()
	sb.Append(Stmt{Kind: SWrTmpBinop, Tmp: t, Op: op, E1: a, E2: b})
	return t
}

// WrTmpUnop appends t = op(a) and returns t.
func (sb *SuperBlock) WrTmpUnop(op Op, a Expr) Temp {
	t := sb.NewTemp()
	sb.Append(Stmt{Kind: SWrTmpUnop, Tmp: t, Op: op, E1: a})
	return t
}

// WrTmpLoad appends t = LD<w>(addr) and returns t.
func (sb *SuperBlock) WrTmpLoad(w Width, addr Expr) Temp {
	t := sb.NewTemp()
	sb.Append(Stmt{Kind: SWrTmpLoad, Tmp: t, Wd: w, E1: addr})
	return t
}

// Store appends ST<w>(addr) = data.
func (sb *SuperBlock) Store(w Width, addr, data Expr) {
	sb.Append(Stmt{Kind: SStore, Wd: w, E1: addr, E2: data})
}

// PutReg appends r = e.
func (sb *SuperBlock) PutReg(r uint8, e Expr) {
	sb.Append(Stmt{Kind: SPutReg, Reg: r, E1: e})
}

// Exit appends a conditional exit: if (guard != 0) goto target.
func (sb *SuperBlock) Exit(guard Expr, target uint64, jk JumpKind) {
	sb.Append(Stmt{Kind: SExit, E1: guard, Target: target, JK: jk})
}

// AppendCall appends a dirty statement making call c, with its result in
// temp tmp (NoTemp when unused).
func (sb *SuperBlock) AppendCall(tmp Temp, c DirtyCall) {
	sb.Append(Stmt{Kind: SDirty, Tmp: tmp, Call: uint32(len(sb.Calls))})
	sb.Calls = append(sb.Calls, c)
}

// AppendFrom appends statement s of block src, carrying its call over when
// it is a dirty statement.
func (sb *SuperBlock) AppendFrom(src *SuperBlock, s *Stmt) {
	if s.Kind == SDirty {
		sb.AppendCall(s.Tmp, src.Calls[s.Call])
		return
	}
	sb.Append(*s)
}

// Dirty appends a helper call with no result.
func (sb *SuperBlock) Dirty(name string, fn DirtyFn, args ...Expr) {
	sb.AppendCall(NoTemp, DirtyCall{Name: name, Fn: fn, Args: args})
}

// DirtyTmp appends a helper call whose result is stored in a fresh temp.
func (sb *SuperBlock) DirtyTmp(name string, fn DirtyFn, args ...Expr) Temp {
	t := sb.NewTemp()
	sb.AppendCall(t, DirtyCall{Name: name, Fn: fn, Args: args})
	return t
}

// String renders a statement in VEX-like syntax. A dirty statement shows
// only its call's index; SuperBlock.StmtString renders the call itself.
func (s Stmt) String() string {
	switch s.Kind {
	case SIMark:
		return fmt.Sprintf("------ IMark(0x%x, %d) ------", s.Addr, s.Len)
	case SWrTmpExpr:
		return fmt.Sprintf("t%d = %s", s.Tmp, s.E1)
	case SWrTmpBinop:
		return fmt.Sprintf("t%d = %s(%s,%s)", s.Tmp, s.Op, s.E1, s.E2)
	case SWrTmpUnop:
		return fmt.Sprintf("t%d = %s(%s)", s.Tmp, s.Op, s.E1)
	case SWrTmpLoad:
		return fmt.Sprintf("t%d = LD%d(%s)", s.Tmp, s.Wd*8, s.E1)
	case SStore:
		return fmt.Sprintf("ST%d(%s) = %s", s.Wd*8, s.E1, s.E2)
	case SPutReg:
		return fmt.Sprintf("PUT(r%d) = %s", s.Reg, s.E1)
	case SExit:
		return fmt.Sprintf("if (%s) goto {%s} 0x%x", s.E1, s.JK, s.Target)
	case SDirty:
		return s.dirtyString(fmt.Sprintf("#%d", s.Call), nil)
	}
	return "?stmt"
}

// dirtyString renders a dirty statement calling name with args.
func (s *Stmt) dirtyString(name string, args []Expr) string {
	var b strings.Builder
	if s.Tmp != NoTemp {
		fmt.Fprintf(&b, "t%d = ", s.Tmp)
	}
	fmt.Fprintf(&b, "DIRTY %s(", name)
	for i, a := range args {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(a.String())
	}
	b.WriteString(")")
	return b.String()
}

// StmtString renders statement i of the block, a dirty one with its call.
func (sb *SuperBlock) StmtString(i int) string {
	s := &sb.Stmts[i]
	if s.Kind == SDirty && int(s.Call) < len(sb.Calls) {
		c := &sb.Calls[s.Call]
		return s.dirtyString(c.Name, c.Args)
	}
	return s.String()
}

// String renders the whole superblock.
func (sb *SuperBlock) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IRSB@0x%x {\n", sb.GuestAddr)
	for i := range sb.Stmts {
		fmt.Fprintf(&b, "   %s\n", sb.StmtString(i))
	}
	fmt.Fprintf(&b, "   goto {%s} %s\n}\n", sb.NextJK, sb.Next)
	return b.String()
}

// Validate checks IR well-formedness: temps are written before read, written
// exactly once, and all temp references are in range. Tools run this after
// instrumentation in debug builds.
func (sb *SuperBlock) Validate() error {
	written := make([]bool, sb.NTemps)
	checkRead := func(e Expr) error {
		if e.Kind == KindRdTmp {
			if uint32(e.Tmp) >= sb.NTemps {
				return fmt.Errorf("vex: temp t%d out of range (%d temps)", e.Tmp, sb.NTemps)
			}
			if !written[e.Tmp] {
				return fmt.Errorf("vex: temp t%d read before write", e.Tmp)
			}
		}
		return nil
	}
	checkWrite := func(t Temp) error {
		if uint32(t) >= sb.NTemps {
			return fmt.Errorf("vex: temp t%d out of range (%d temps)", t, sb.NTemps)
		}
		if written[t] {
			return fmt.Errorf("vex: temp t%d written twice", t)
		}
		written[t] = true
		return nil
	}
	for i, s := range sb.Stmts {
		var err error
		switch s.Kind {
		case SIMark:
		case SWrTmpExpr:
			if err = checkRead(s.E1); err == nil {
				err = checkWrite(s.Tmp)
			}
		case SWrTmpBinop:
			if err = checkRead(s.E1); err == nil {
				if err = checkRead(s.E2); err == nil {
					err = checkWrite(s.Tmp)
				}
			}
		case SWrTmpUnop:
			if err = checkRead(s.E1); err == nil {
				err = checkWrite(s.Tmp)
			}
		case SWrTmpLoad:
			if err = checkRead(s.E1); err == nil {
				err = checkWrite(s.Tmp)
			}
		case SStore:
			if err = checkRead(s.E1); err == nil {
				err = checkRead(s.E2)
			}
		case SPutReg:
			err = checkRead(s.E1)
		case SExit:
			err = checkRead(s.E1)
		case SDirty:
			if int(s.Call) >= len(sb.Calls) {
				err = fmt.Errorf("vex: dirty call #%d out of range (%d calls)", s.Call, len(sb.Calls))
				break
			}
			c := &sb.Calls[s.Call]
			for _, a := range c.Args {
				if err = checkRead(a); err != nil {
					break
				}
			}
			if err == nil && s.Tmp != NoTemp {
				err = checkWrite(s.Tmp)
			}
			if err == nil && c.Fn == nil {
				err = fmt.Errorf("vex: dirty %q has nil helper", c.Name)
			}
		default:
			err = fmt.Errorf("vex: unknown statement kind %d", s.Kind)
		}
		if err != nil {
			return fmt.Errorf("stmt %d (%s): %w", i, sb.StmtString(i), err)
		}
	}
	return checkRead(sb.Next)
}

// EvalBinop computes a binary operation on 64-bit values, with float ops
// interpreting operands as float64 bit patterns. Shared by the IR executor
// and the direct interpreter so both agree on semantics.
func EvalBinop(op Op, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case OpRem:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpSar:
		return uint64(int64(a) >> (b & 63))
	case OpCmpEQ:
		return b2u(a == b)
	case OpCmpNE:
		return b2u(a != b)
	case OpCmpLT:
		return b2u(int64(a) < int64(b))
	case OpCmpGE:
		return b2u(int64(a) >= int64(b))
	case OpCmpLTU:
		return b2u(a < b)
	case OpCmpGEU:
		return b2u(a >= b)
	case OpFAdd:
		return f2u(u2f(a) + u2f(b))
	case OpFSub:
		return f2u(u2f(a) - u2f(b))
	case OpFMul:
		return f2u(u2f(a) * u2f(b))
	case OpFDiv:
		return f2u(u2f(a) / u2f(b))
	case OpFCmpLT:
		return b2u(u2f(a) < u2f(b))
	case OpFCmpLE:
		return b2u(u2f(a) <= u2f(b))
	case OpFCmpEQ:
		return b2u(u2f(a) == u2f(b))
	}
	panic(fmt.Sprintf("vex: EvalBinop on non-binary op %s", op))
}

// EvalUnop computes a unary operation.
func EvalUnop(op Op, a uint64) uint64 {
	switch op {
	case OpNot:
		return ^a
	case OpNeg:
		return -a
	case OpItoF:
		return f2u(float64(int64(a)))
	case OpFtoI:
		return uint64(int64(u2f(a)))
	}
	panic(fmt.Sprintf("vex: EvalUnop on non-unary op %s", op))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
