package vex

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValidateAcceptsWellFormed(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	a := sb.WrTmpExpr(ConstE(7))
	b := sb.WrTmpBinop(OpAdd, TmpE(a), RegE(3))
	sb.Store(W64, TmpE(b), ConstE(42))
	sb.PutReg(2, TmpE(b))
	sb.Exit(TmpE(a), 0x2000, JKBoring)
	sb.Next = ConstE(0x1008)
	if err := sb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsReadBeforeWrite(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000, NTemps: 2}
	sb.Append(Stmt{Kind: SWrTmpExpr, Tmp: 0, E1: TmpE(1)})
	sb.Next = ConstE(0)
	if err := sb.Validate(); err == nil || !strings.Contains(err.Error(), "read before write") {
		t.Fatalf("want read-before-write error, got %v", err)
	}
}

func TestValidateRejectsDoubleWrite(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	tt := sb.WrTmpExpr(ConstE(1))
	sb.Append(Stmt{Kind: SWrTmpExpr, Tmp: tt, E1: ConstE(2)})
	sb.Next = ConstE(0)
	if err := sb.Validate(); err == nil || !strings.Contains(err.Error(), "written twice") {
		t.Fatalf("want double-write error, got %v", err)
	}
}

func TestValidateRejectsOutOfRangeTemp(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.Next = TmpE(5)
	if err := sb.Validate(); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestValidateRejectsNilDirty(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.AppendCall(NoTemp, DirtyCall{Name: "x"})
	sb.Next = ConstE(0)
	if err := sb.Validate(); err == nil || !strings.Contains(err.Error(), "nil helper") {
		t.Fatalf("want nil-helper error, got %v", err)
	}
}

func neg(v int64) uint64 { return uint64(-v) }

func TestEvalBinopIntegerLaws(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, ^uint64(0)},
		{OpMul, 6, 7, 42},
		{OpDiv, neg(8), 2, neg(4)},
		{OpDiv, 5, 0, 0},
		{OpRem, 7, 0, 0},
		{OpRem, neg(7), 2, neg(1)},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 65, 2}, // shift count masked to 6 bits
		{OpShr, 8, 2, 2},
		{OpSar, neg(8), 1, neg(4)},
		{OpCmpEQ, 5, 5, 1},
		{OpCmpNE, 5, 5, 0},
		{OpCmpLT, neg(1), 0, 1},
		{OpCmpLTU, neg(1), 0, 0},
		{OpCmpGE, 0, neg(1), 1},
		{OpCmpGEU, 0, neg(1), 0},
	}
	for _, c := range cases {
		if got := EvalBinop(c.op, c.a, c.b); got != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalBinopFloat(t *testing.T) {
	a, b := math.Float64bits(1.5), math.Float64bits(2.5)
	if got := math.Float64frombits(EvalBinop(OpFAdd, a, b)); got != 4.0 {
		t.Errorf("FAdd = %g", got)
	}
	if got := math.Float64frombits(EvalBinop(OpFMul, a, b)); got != 3.75 {
		t.Errorf("FMul = %g", got)
	}
	if EvalBinop(OpFCmpLT, a, b) != 1 || EvalBinop(OpFCmpLT, b, a) != 0 {
		t.Error("FCmpLT wrong")
	}
	if EvalBinop(OpFCmpLE, a, a) != 1 {
		t.Error("FCmpLE not reflexive")
	}
	if EvalBinop(OpFCmpEQ, a, a) != 1 {
		t.Error("FCmpEQ not reflexive")
	}
}

func TestEvalUnop(t *testing.T) {
	if EvalUnop(OpNot, 0) != ^uint64(0) {
		t.Error("Not")
	}
	if EvalUnop(OpNeg, 5) != neg(5) {
		t.Error("Neg")
	}
	if math.Float64frombits(EvalUnop(OpItoF, neg(3))) != -3.0 {
		t.Error("ItoF")
	}
	if int64(EvalUnop(OpFtoI, math.Float64bits(-3.9))) != -3 {
		t.Error("FtoI truncation")
	}
}

// Property: Add/Sub and Xor are involutive inverses.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		return EvalBinop(OpSub, EvalBinop(OpAdd, a, b), b) == a &&
			EvalBinop(OpXor, EvalBinop(OpXor, a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison ops return only 0 or 1 and are mutually exclusive
// with their complements.
func TestQuickCmpComplement(t *testing.T) {
	f := func(a, b uint64) bool {
		eq, ne := EvalBinop(OpCmpEQ, a, b), EvalBinop(OpCmpNE, a, b)
		lt, ge := EvalBinop(OpCmpLT, a, b), EvalBinop(OpCmpGE, a, b)
		ltu, geu := EvalBinop(OpCmpLTU, a, b), EvalBinop(OpCmpGEU, a, b)
		return eq^ne == 1 && lt^ge == 1 && ltu^geu == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	a := sb.WrTmpLoad(W32, ConstE(0x2000))
	sb.Store(W32, ConstE(0x2004), TmpE(a))
	sb.Dirty("trace", func(any, []uint64) uint64 { return 0 }, TmpE(a))
	sb.Next = ConstE(0x1008)
	s := sb.String()
	for _, want := range []string{"IMark(0x1000", "LD32", "ST32", "DIRTY trace"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q in:\n%s", want, s)
		}
	}
}

func TestOpStringAndUnary(t *testing.T) {
	if OpAdd.String() != "Add" || OpFCmpEQ.String() != "FCmpEQ" {
		t.Error("op names")
	}
	if !OpNot.IsUnary() || OpAdd.IsUnary() {
		t.Error("IsUnary")
	}
}

func TestF2UandU2FRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)} {
		if U2F(F2U(v)) != v {
			t.Errorf("round trip %g", v)
		}
	}
}

// TestIRLayout pins the packed sizes of Expr and Stmt. A translation copies
// its finished block out of the core's arena statement by statement, and
// the cache keeps the copy, so padding costs once per statement.
func TestIRLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(Expr{}); n != 16 {
		t.Errorf("sizeof(Expr) = %d, want 16", n)
	}
	if n := unsafe.Sizeof(Stmt{}); n != 64 {
		t.Errorf("sizeof(Stmt) = %d, want 64", n)
	}
}

// TestIRHoldsNoPointers walks Expr, Stmt and UOp field by field and fails on
// any field the garbage collector would have to trace: a pointer, slice,
// string, map, func, chan or interface, at any depth. Statements and
// micro-ops are appended, swept and fused by the thousand per translation;
// while they hold no pointers, each copy is a plain memory move, free of
// write barriers, and an op array is never scanned. What a dirty call needs
// lives in the side tables (SuperBlock.Calls, Compiled.Calls) instead.
func TestIRHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Func, reflect.Chan, reflect.Interface:
			t.Errorf("%s is a %s: the type must hold no pointers", path, ty.Kind())
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	for _, v := range []any{Expr{}, Stmt{}, UOp{}} {
		ty := reflect.TypeOf(v)
		walk(ty.Name(), ty)
	}
}
