package vex

import (
	"fmt"
	"strings"
	"testing"
)

func TestOptimizeFoldsConstants(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	a := sb.WrTmpExpr(ConstE(6))
	b := sb.WrTmpExpr(ConstE(7))
	c := sb.WrTmpBinop(OpMul, TmpE(a), TmpE(b))
	d := sb.WrTmpUnop(OpNeg, TmpE(c))
	sb.PutReg(3, TmpE(d))
	sb.Next = ConstE(0x1008)
	sb.NextJK = JKBoring

	opt := Optimize(sb)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everything folds into PUT(r3) = -42; the pure temps die.
	var puts int
	for _, s := range opt.Stmts {
		switch s.Kind {
		case SPutReg:
			puts++
			if s.E1.Kind != KindConst || int64(s.E1.Const) != -42 {
				t.Fatalf("PUT operand = %v", s.E1)
			}
		case SWrTmpExpr, SWrTmpBinop, SWrTmpUnop:
			t.Fatalf("pure temp survived: %v", s)
		}
	}
	if puts != 1 {
		t.Fatalf("puts = %d", puts)
	}
}

func TestOptimizePreservesSideEffects(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	addr := sb.WrTmpBinop(OpAdd, ConstE(0x2000), ConstE(8))
	v := sb.WrTmpLoad(W64, TmpE(addr))
	sb.Store(W64, ConstE(0x3000), TmpE(v))
	sb.Dirty("probe", func(any, []uint64) uint64 { return 0 }, TmpE(addr))
	sb.Exit(ConstE(0), 0x4000, JKBoring)
	sb.Next = ConstE(0x1008)

	opt := Optimize(sb)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	var loads, stores, dirties, exits int
	for _, s := range opt.Stmts {
		switch s.Kind {
		case SWrTmpLoad:
			loads++
			if s.E1.Kind != KindConst || s.E1.Const != 0x2008 {
				t.Fatalf("load address not folded: %v", s.E1)
			}
		case SStore:
			stores++
		case SDirty:
			dirties++
			if s.Args[0].Kind != KindConst || s.Args[0].Const != 0x2008 {
				t.Fatalf("dirty arg not folded: %v", s.Args[0])
			}
		case SExit:
			exits++
		}
	}
	if loads != 1 || stores != 1 || dirties != 1 || exits != 1 {
		t.Fatalf("side effects lost: ld=%d st=%d dirty=%d exit=%d", loads, stores, dirties, exits)
	}
}

func TestOptimizeGetRegAliasInvalidation(t *testing.T) {
	// t0 = GET(r1); PUT(r1) = 5; PUT(r2) = t0 — t0 must NOT become
	// GET(r1) after the overwrite.
	sb := &SuperBlock{GuestAddr: 0x1000}
	t0 := sb.WrTmpExpr(RegE(1))
	sb.PutReg(1, ConstE(5))
	sb.PutReg(2, TmpE(t0))
	sb.Next = ConstE(0x1008)

	opt := Optimize(sb)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range opt.Stmts {
		if s.Kind == SPutReg && s.Reg == 2 {
			if s.E1.Kind == KindGetReg {
				t.Fatal("stale GetReg alias substituted past the overwrite")
			}
		}
	}
}

// optimized renders Optimize(sb), checked well-formed, one statement a line.
func optimized(t *testing.T, sb *SuperBlock) string {
	t.Helper()
	opt := Optimize(sb)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range opt.Stmts {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "goto %s\n", opt.Next)
	return b.String()
}

// TestOptimizeForwardsConstantLoad: an ldi/ldih pair as the translator
// lowers it becomes one register write of the constant.
func TestOptimizeForwardsConstantLoad(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.IMark(0x1000, 8)
	sb.PutReg(1, ConstE(0x12345678))
	sb.IMark(0x1008, 8)
	lo := sb.WrTmpBinop(OpAnd, RegE(1), ConstE(0xffffffff))
	hi := sb.WrTmpBinop(OpOr, TmpE(lo), ConstE(9<<32))
	sb.PutReg(1, TmpE(hi))
	sb.IMark(0x1010, 8)
	sb.Store(W64, RegE(1), RegE(2))
	sb.Next = ConstE(0x1018)
	want := `------ IMark(0x1000, 8) ------
------ IMark(0x1008, 8) ------
PUT(r1) = 0x912345678
------ IMark(0x1010, 8) ------
ST64(0x912345678) = GET(r2)
goto 0x1018
`
	if got := optimized(t, sb); got != want {
		t.Fatalf("got\n%swant\n%s", got, want)
	}
}

// TestOptimizeKeepsObservablePuts: a PUT survives a later PUT to its
// register when a load, store, exit, dirty call or register read between
// the two can observe it, and only then.
func TestOptimizeKeepsObservablePuts(t *testing.T) {
	probe := func(any, []uint64) uint64 { return 0 }
	for _, c := range []struct {
		name    string
		between func(sb *SuperBlock)
		puts    int
	}{
		{"nothing", func(sb *SuperBlock) {}, 1},
		{"pure", func(sb *SuperBlock) { sb.PutReg(2, TmpE(sb.WrTmpBinop(OpAdd, RegE(4), ConstE(1)))) }, 1},
		{"load", func(sb *SuperBlock) { sb.WrTmpLoad(W8, RegE(2)) }, 2},
		{"store", func(sb *SuperBlock) { sb.Store(W8, RegE(2), ConstE(0)) }, 2},
		{"exit", func(sb *SuperBlock) { sb.Exit(RegE(2), 0x4000, JKBoring) }, 2},
		{"dirty", func(sb *SuperBlock) { sb.Dirty("probe", probe) }, 2},
		{"read", func(sb *SuperBlock) { sb.PutReg(2, RegE(1)) }, 2},
	} {
		sb := &SuperBlock{GuestAddr: 0x1000}
		sb.PutReg(1, RegE(3)) // not forwardable: later GETs read r1
		c.between(sb)
		sb.PutReg(1, ConstE(7))
		sb.Next = ConstE(0x1008)
		opt := Optimize(sb)
		puts := 0
		for _, s := range opt.Stmts {
			if s.Kind == SPutReg && s.Reg == 1 {
				puts++
			}
		}
		if puts != c.puts {
			t.Errorf("%s: %d PUTs to r1 kept, want %d:\n%s", c.name, puts, c.puts, opt)
		}
	}
}

// TestOptimizeDropsDeadChains: removing a PUT kills the pure statements that
// only fed it, and the ones that only fed those.
func TestOptimizeDropsDeadChains(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	t0 := sb.WrTmpBinop(OpMul, RegE(2), RegE(3))
	sb.PutReg(1, TmpE(t0))
	t1 := sb.WrTmpBinop(OpAdd, RegE(1), RegE(4))
	sb.PutReg(1, TmpE(t1))
	sb.PutReg(1, ConstE(7))
	sb.Next = ConstE(0x1008)
	if got, want := optimized(t, sb), "PUT(r1) = 0x7\ngoto 0x1008\n"; got != want {
		t.Fatalf("got\n%swant\n%s", got, want)
	}
}

// TestOptimizeCSE: a binop the block computed already reads the earlier
// temp, unless one of its source registers was written or a dirty call ran
// in between.
func TestOptimizeCSE(t *testing.T) {
	for _, c := range []struct {
		name    string
		between func(sb *SuperBlock)
		muls    int
	}{
		{"nothing", func(sb *SuperBlock) {}, 1},
		{"other register", func(sb *SuperBlock) { sb.PutReg(5, RegE(6)) }, 1},
		{"source register", func(sb *SuperBlock) { sb.PutReg(2, RegE(6)) }, 2},
		{"dirty", func(sb *SuperBlock) { sb.Dirty("probe", func(any, []uint64) uint64 { return 0 }) }, 2},
	} {
		sb := &SuperBlock{GuestAddr: 0x1000}
		sb.PutReg(4, TmpE(sb.WrTmpBinop(OpMul, RegE(2), RegE(3))))
		c.between(sb)
		sb.PutReg(7, TmpE(sb.WrTmpBinop(OpMul, RegE(2), RegE(3))))
		sb.Next = ConstE(0x1008)
		opt := Optimize(sb)
		muls := 0
		for _, s := range opt.Stmts {
			if s.Kind == SWrTmpBinop && s.Op == OpMul {
				muls++
			}
		}
		if muls != c.muls {
			t.Errorf("%s: %d Muls, want %d:\n%s", c.name, muls, c.muls, opt)
		}
	}
}

// TestOptimizeDirtyEndsForwarding: a dirty call may write any register, so
// a GET after one reads the register, not the value put before it.
func TestOptimizeDirtyEndsForwarding(t *testing.T) {
	sb := &SuperBlock{GuestAddr: 0x1000}
	sb.PutReg(1, ConstE(5))
	sb.Dirty("probe", func(any, []uint64) uint64 { return 0 })
	sb.PutReg(2, TmpE(sb.WrTmpBinop(OpAdd, RegE(1), ConstE(1))))
	sb.Next = ConstE(0x1008)
	want := `PUT(r1) = 0x5
DIRTY probe()
t0 = Add(GET(r1),0x1)
PUT(r2) = t0
goto 0x1008
`
	if got := optimized(t, sb); got != want {
		t.Fatalf("got\n%swant\n%s", got, want)
	}
}

func TestOptimizeCopyPropagation(t *testing.T) {
	// Chains of copies collapse.
	sb := &SuperBlock{GuestAddr: 0x1000}
	t0 := sb.WrTmpExpr(RegE(4))
	t1 := sb.WrTmpExpr(TmpE(t0))
	t2 := sb.WrTmpExpr(TmpE(t1))
	sb.PutReg(5, TmpE(t2))
	sb.Next = ConstE(0x1008)
	opt := Optimize(sb)
	for _, s := range opt.Stmts {
		if s.Kind == SPutReg {
			if s.E1.Kind != KindGetReg || s.E1.Reg != 4 {
				t.Fatalf("copy chain not collapsed: %v", s.E1)
			}
		}
	}
	if len(opt.Stmts) != 1 {
		t.Fatalf("dead copies survived: %d stmts", len(opt.Stmts))
	}
}

// mixedBlock builds an n-instruction block of register copies, folds,
// loads, stores, register writes, an exit and a dirty call. A leading load
// for odd n shifts the temp numbers, so a temp folded in one block is read
// as a load in another.
func mixedBlock(n int) *SuperBlock {
	sb := &SuperBlock{GuestAddr: 0x1000}
	if n%2 == 1 {
		sb.PutReg(7, TmpE(sb.WrTmpLoad(W8, RegE(6))))
	}
	for i := 0; i < n; i++ {
		sb.IMark(0x1000+uint64(8*i), 8)
		r := uint8(i % 8)
		a := sb.WrTmpExpr(RegE(r))
		k := sb.WrTmpBinop(OpMul, ConstE(uint64(i)), ConstE(3))
		b := sb.WrTmpBinop(OpAdd, TmpE(a), TmpE(k))
		v := sb.WrTmpLoad(W64, TmpE(b))
		sb.Store(W32, TmpE(b), TmpE(v))
		sb.PutReg(r, TmpE(v))
		if i%5 == 4 {
			sb.Exit(TmpE(a), 0x9000, JKBoring)
			sb.Dirty("probe", func(any, []uint64) uint64 { return 0 }, TmpE(b), TmpE(k))
		}
	}
	sb.Next = ConstE(0x1000 + uint64(8*n))
	return sb
}

// opsString renders compiled code without its func values.
func opsString(c *Compiled) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d\n", c.NFrame, c.NInstrs)
	for i, u := range c.Ops {
		fmt.Fprintf(&b, "%d %d %d %d %d %d %d %d %d", u.Code, u.Wd, u.Op, u.Dst, u.A, u.B, u.Imm, c.PCs[i], c.ICs[i])
		if d := u.Dirty; d != nil {
			fmt.Fprintf(&b, " %s %v %d", d.Name, d.Args, d.InstrsBefore)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestScratchReuseMatchesFresh runs blocks of different sizes, the largest
// first, through one Scratch, and checks every result against a fresh
// Optimize and Compile: nothing a block leaves in the Scratch may leak into
// the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var x Scratch
	for _, n := range []int{40, 3, 17, 1, 64, 9} {
		sb := mixedBlock(n)
		want := Optimize(sb)
		got := &SuperBlock{}
		x.Optimize(got, sb)
		if got.String() != want.String() || got.NTemps != want.NTemps {
			t.Fatalf("%d instrs: reused Scratch optimized to\n%s\nwant\n%s", n, got, want)
		}
		wc, err := Compile(want)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := x.Compile(got)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := opsString(gc), opsString(wc); g != w {
			t.Fatalf("%d instrs: reused Scratch compiled to\n%s\nwant\n%s", n, g, w)
		}
	}
}
