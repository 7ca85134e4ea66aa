package vex

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// binOps and unOps enumerate the full Op space for the table tests.
var binOps = []Op{
	OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
	OpSar, OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpGE, OpCmpLTU, OpCmpGEU,
	OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmpLT, OpFCmpLE, OpFCmpEQ,
}

var unOps = []Op{OpNot, OpNeg, OpItoF, OpFtoI}

// TestOpTableMatchesEvalBinop property-tests that the pre-bound op table the
// compiled engine dispatches through is bit-for-bit the interpreter's
// EvalBinop/EvalUnop — the one invariant the differential tests rest on.
func TestOpTableMatchesEvalBinop(t *testing.T) {
	edge := []uint64{
		0, 1, 2, 63, 64, 65, ^uint64(0), 1 << 63, (1 << 63) - 1,
		math.Float64bits(0), math.Float64bits(1.5), math.Float64bits(-2.25),
		math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)),
	}
	for _, op := range binOps {
		fn := BinopFn(op)
		if fn == nil {
			t.Fatalf("BinopFn(%s) = nil", op)
		}
		for _, a := range edge {
			for _, b := range edge {
				if got, want := fn(a, b), EvalBinop(op, a, b); got != want {
					t.Fatalf("%s(%#x, %#x): table %#x, EvalBinop %#x", op, a, b, got, want)
				}
			}
		}
		if err := quick.Check(func(a, b uint64) bool {
			return fn(a, b) == EvalBinop(op, a, b)
		}, nil); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	for _, op := range unOps {
		fn := UnopFn(op)
		if fn == nil {
			t.Fatalf("UnopFn(%s) = nil", op)
		}
		for _, a := range edge {
			if got, want := fn(a), EvalUnop(op, a); got != want {
				t.Fatalf("%s(%#x): table %#x, EvalUnop %#x", op, a, got, want)
			}
		}
		if err := quick.Check(func(a uint64) bool {
			return fn(a) == EvalUnop(op, a)
		}, nil); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
}

func TestBinopFnUnaryIsNotBinary(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.WrTmpBinop(OpNot, ConstE(1), ConstE(2))
	sb.Next = ConstE(0x1008)
	if _, err := Compile(sb); err == nil || !strings.Contains(err.Error(), "bad binary op") {
		t.Fatalf("want bad-binary-op error, got %v", err)
	}
}

func TestCompileFoldsConstants(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	a := sb.WrTmpBinop(OpAdd, ConstE(40), ConstE(2)) // folds to 42
	b := sb.WrTmpUnop(OpNeg, ConstE(5))              // folds to -5
	sb.PutReg(1, TmpE(a))
	sb.PutReg(2, TmpE(b))
	sb.Next = ConstE(0x1008)
	sb.NextJK = JKBoring
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	var movs []UOp
	for _, u := range c.Ops {
		if u.Code == UMovC {
			movs = append(movs, u)
		}
		if u.Code == UBinTT || u.Code == UBinTC || u.Code == UBinCT || u.Code == UUnT {
			t.Fatalf("const operation survived folding: %+v", u)
		}
	}
	minus5 := ^uint64(5) + 1
	if len(movs) != 2 || movs[0].Imm != 42 || movs[1].Imm != minus5 {
		t.Fatalf("bad folded moves: %+v", movs)
	}
	if c.NInstrs != 1 {
		t.Fatalf("NInstrs = %d, want 1", c.NInstrs)
	}
}

func TestCompileExitGuards(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Exit(ConstE(0), 0x2000, JKBoring) // never taken: dropped
	sb.Exit(ConstE(7), 0x3000, JKBoring) // always taken: UJmp
	sb.Next = ConstE(0x1008)
	sb.NextJK = JKBoring
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ops) != 1 || c.Ops[0].Code != UJmp || c.Ops[0].Imm != 0x3000 {
		t.Fatalf("want a single UJmp to 0x3000, got %+v", c.Ops)
	}
}

// TestCompileFusesRegisterWrites: a computation or load whose temp feeds a
// register write fuses into one op writing both, whatever else reads the
// temp, and a constant put to a register and then loaded through fuses
// into the load, which keeps the load's PC.
func TestCompileFusesRegisterWrites(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	sum := sb.WrTmpBinop(OpAdd, RegE(1), RegE(2))
	sb.PutReg(3, TmpE(sum))
	sb.IMark(0x1008, 8)
	v := sb.WrTmpLoad(W64, TmpE(sum))
	sb.PutReg(4, TmpE(v))
	sb.IMark(0x1010, 8)
	sb.PutReg(5, ConstE(0x9000))
	sb.IMark(0x1018, 8)
	w := sb.WrTmpLoad(W32, ConstE(0x9000))
	sb.Store(W32, TmpE(v), TmpE(w))
	sb.Next = ConstE(0x1020)
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	want := []UOp{
		{Code: UPutBinRR, Op: OpAdd, Dst: uint32(sum), Wd: 3, A: 1, B: 2},
		{Code: ULdPT, Wd: 8, Dst: uint32(v), A: uint32(sum), B: 4},
		{Code: UPutLdC, Wd: 4, Dst: uint32(w), A: 5, Imm: 0x9000},
		{Code: UStTT, Wd: 4, A: uint32(v), B: uint32(w)},
	}
	if len(c.Ops) != len(want) {
		t.Fatalf("got %d ops, want %d: %+v", len(c.Ops), len(want), c.Ops)
	}
	for i, u := range c.Ops {
		w := want[i]
		if u.Code != w.Code || u.Op != w.Op || u.Wd != w.Wd || u.Dst != w.Dst ||
			u.A != w.A || u.B != w.B || u.Imm != w.Imm {
			t.Errorf("op %d = %+v, want %+v", i, u, w)
		}
	}
	if c.PCs[2] != 0x1018 || c.ICs[2] != 4 {
		t.Errorf("fused constant load at pc %#x, count %d; want the load's, 0x1018 and 4", c.PCs[2], c.ICs[2])
	}
}

// TestCompileBlockEndingInBinop: a binop whose temp only the fall-through
// reads is the block's last op, with nothing after it to fuse with.
func TestCompileBlockEndingInBinop(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	sb.Next = TmpE(sb.WrTmpBinop(OpCmpEQ, RegE(1), RegE(2)))
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ops) != 1 || c.Ops[0].Code != UBinRR || c.NextKind != KindRdTmp {
		t.Fatalf("want one UBinRR feeding the fall-through, got %+v", c.Ops)
	}
}

// TestUOpSize pins the micro-op at 48 bytes on 64-bit hosts. The compiled
// engine walks arrays of them, so a field that grows the op costs every
// executed micro-op; one that shrinks it should lower the pin.
func TestUOpSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit hosts")
	}
	if got := unsafe.Sizeof(UOp{}); got != 48 {
		t.Fatalf("vex.UOp is %d bytes, pinned at 48", got)
	}
}

func TestCompileScratchStore(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Store(W32, ConstE(0x9000), ConstE(0xabcd)) // const addr, const data
	sb.Next = ConstE(0x1008)
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	if c.NFrame != sb.NTemps+1 {
		t.Fatalf("NFrame = %d, want NTemps+1 = %d", c.NFrame, sb.NTemps+1)
	}
	if len(c.Ops) != 2 {
		t.Fatalf("want UMovC + UStCT, got %+v", c.Ops)
	}
	mov, st := c.Ops[0], c.Ops[1]
	if mov.Code != UMovC || mov.Imm != 0xabcd || mov.Dst != uint32(sb.NTemps) {
		t.Fatalf("bad scratch mov: %+v", mov)
	}
	if st.Code != UStCT || st.Imm != 0x9000 || st.B != mov.Dst || st.Wd != 4 {
		t.Fatalf("bad scratch store: %+v", st)
	}
}

func TestCompileDirtyPrebinding(t *testing.T) {
	fn := func(_ any, args []uint64) uint64 { return 99 }
	sb := &SuperBlock{GuestAddr: 0x1000}
	tv := sb.WrTmpExpr(ConstE(11))
	res := sb.NewTemp()
	sb.Append(Stmt{Kind: SDirty, Tmp: res, Name: "helper", Fn: fn,
		Args: []Expr{ConstE(7), TmpE(tv), RegE(3)}})
	sb.Next = ConstE(0x1008)
	c, err := Compile(sb)
	if err != nil {
		t.Fatal(err)
	}
	var d *DirtyOp
	for _, u := range c.Ops {
		if u.Code == UDirty {
			d = u.Dirty
		}
	}
	if d == nil || d.Name != "helper" || !d.HasTmp || d.Tmp != uint32(res) {
		t.Fatalf("bad dirty op: %+v", d)
	}
	want := []CArg{
		{Kind: KindConst, Imm: 7},
		{Kind: KindRdTmp, Idx: uint32(tv)},
		{Kind: KindGetReg, Idx: 3},
	}
	if len(d.Args) != len(want) {
		t.Fatalf("args: %+v", d.Args)
	}
	for i, a := range d.Args {
		if a != want[i] {
			t.Fatalf("arg %d: got %+v, want %+v", i, a, want[i])
		}
	}
}

func TestCompileRejectsNilDirty(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Append(Stmt{Kind: SDirty, Tmp: NoTemp, Name: "broken"})
	sb.Next = ConstE(0)
	if _, err := Compile(sb); err == nil || !strings.Contains(err.Error(), "nil helper") {
		t.Fatalf("want nil-helper error, got %v", err)
	}
}

func TestCompileRejectsUnknownStmt(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Append(Stmt{Kind: StmtKind(200)})
	sb.Next = ConstE(0)
	if _, err := Compile(sb); err == nil || !strings.Contains(err.Error(), "unknown statement") {
		t.Fatalf("want unknown-statement error, got %v", err)
	}
}
