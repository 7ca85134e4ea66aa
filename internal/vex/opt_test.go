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
