package dbi_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dbi"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/vex"
)

// TestTranslateJumpKinds checks the block-ending classification.
func TestTranslateJumpKinds(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "jk.c")
	f.Hcall("malloc") // block 0: ends JKHostCall
	f.Creq(0x42)      // block 1: ends JKClientReq
	f.Call("leaf")    // block 2: JKCall
	f.Hlt(guest.R0)   // block 3: JKExitThread
	leaf := b.Func("leaf", "jk.c")
	leaf.Ret() // JKRet
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		addr uint64
		jk   vex.JumpKind
		aux  int32
	}{
		{guest.TextBase, vex.JKHostCall, 0},
		{guest.TextBase + 8, vex.JKClientReq, 0x42},
		{guest.TextBase + 16, vex.JKCall, 0},
		{guest.TextBase + 24, vex.JKExitThread, 0},
		{guest.TextBase + 32, vex.JKRet, 0},
	}
	for _, w := range want {
		sb, err := dbi.Translate(im, w.addr)
		if err != nil {
			t.Fatal(err)
		}
		if sb.NextJK != w.jk {
			t.Errorf("block 0x%x: jk = %v, want %v", w.addr, sb.NextJK, w.jk)
		}
		if w.jk == vex.JKClientReq && sb.Aux != w.aux {
			t.Errorf("creq aux = %#x", sb.Aux)
		}
		if err := sb.Validate(); err != nil {
			t.Errorf("block 0x%x invalid: %v", w.addr, err)
		}
	}
}

// TestTranslateBlockCapChains: very long straight-line code splits into
// blocks that fall through to each other.
func TestTranslateBlockCapChains(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "long.c")
	for i := 0; i < 200; i++ {
		f.Addi(guest.R1, guest.R1, 1)
	}
	f.Hlt(guest.R1)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := dbi.Translate(im, guest.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	if sb.NextJK != vex.JKBoring {
		t.Fatalf("capped block jk = %v", sb.NextJK)
	}
	if sb.Next.Kind != vex.KindConst || sb.Next.Const != guest.TextBase+dbi.MaxBlockInstrs*guest.InstrBytes {
		t.Fatalf("chain target = %v", sb.Next)
	}
}

// randLinearProgram emits a random straight-line program over computational
// opcodes plus loads/stores into a scratch global, ending in hlt r0.
func randLinearProgram(rng *rand.Rand, n int) (*guest.Image, error) {
	b := gbuild.New()
	b.Global("scratch", 256)
	f := b.Func("main", "rand.c")
	f.LoadSym(guest.R7, "scratch")
	for i := 0; i < n; i++ {
		rd := uint8(rng.Intn(6))
		rs1 := uint8(rng.Intn(8))
		rs2 := uint8(rng.Intn(8))
		switch rng.Intn(12) {
		case 0:
			f.Ldi(rd, int32(rng.Int31()))
		case 1:
			f.Mov(rd, rs1)
		case 2:
			f.Add(rd, rs1, rs2)
		case 3:
			f.Sub(rd, rs1, rs2)
		case 4:
			f.Mul(rd, rs1, rs2)
		case 5:
			f.ALU(guest.OpXor, rd, rs1, rs2)
		case 6:
			f.ALU(guest.OpShl, rd, rs1, rs2)
		case 7:
			f.Addi(rd, rs1, int32(rng.Int31()))
		case 8:
			f.Slt(rd, rs1, rs2)
		case 9:
			width := []uint8{1, 2, 4, 8}[rng.Intn(4)]
			f.St(width, guest.R7, int32(rng.Intn(31)*8), rs2)
		case 10:
			width := []uint8{1, 2, 4, 8}[rng.Intn(4)]
			f.Ld(width, rd, guest.R7, int32(rng.Intn(31)*8))
		case 11:
			f.ALU(guest.OpSar, rd, rs1, rs2)
		}
	}
	f.Hlt(guest.R0)
	return b.Link()
}

// TestQuickIREngineMatchesDirect is the central translator property: for
// random straight-line programs, executing via translated IR produces the
// same exit state as the direct interpreter.
func TestQuickIREngineMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im, err := randLinearProgram(rng, 40)
		if err != nil {
			return false
		}
		run := func(tool dbi.Tool) uint64 {
			m, core, _ := newMachine(t, im, tool, 1)
			if err := core.Run(); err != nil {
				t.Fatal(err)
			}
			return m.ExitCode()
		}
		return run(nil) == run(&countTool{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSymbolFilter checks the per-instruction filter construction.
func TestSymbolFilter(t *testing.T) {
	b := gbuild.New()
	f := b.Func("user", "f.c")
	f.Nop()
	f.Ret()
	g := b.Func("__kmp_helper", "f.c")
	g.Nop()
	g.Ret()
	h := b.Func("main", "f.c")
	h.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	filter := dbi.SymbolFilter(im, func(sym string) bool { return sym == "user" })
	want := []bool{true, true, false, false, false}
	for i, w := range want {
		if filter[i] != w {
			t.Errorf("filter[%d] = %v, want %v", i, filter[i], w)
		}
	}
}

// TestCacheFootprintGrows: translation-cache accounting is monotone.
func TestCacheFootprintGrows(t *testing.T) {
	im := buildFib(t, 10)
	_, core, _ := newMachine(t, im, &countTool{}, 1)
	if core.CacheFootprint() != 0 {
		t.Fatal("cache footprint nonzero before run")
	}
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if core.CacheFootprint() == 0 {
		t.Fatal("cache footprint zero after run")
	}
}

// BenchmarkIREngine measures the heavyweight engine on fib.
func BenchmarkIREngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		im := buildFib(b, 14)
		m, core, _ := newMachine(b, im, &countTool{}, 1)
		if err := core.Run(); err != nil {
			b.Fatal(err)
		}
		if m.ExitCode() != 377 {
			b.Fatal("wrong result")
		}
	}
}

// BenchmarkDirectEngine is the baseline for the same workload.
func BenchmarkDirectEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		im := buildFib(b, 14)
		_, core, _ := newMachine(b, im, nil, 1)
		if err := core.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTranslateEveryALUAndBranchOp pins the opcode -> IR mapping for the
// full instruction set (the random program test only samples it).
func TestTranslateEveryALUAndBranchOp(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "ops.c")
	alu := []guest.Opcode{
		guest.OpAdd, guest.OpSub, guest.OpMul, guest.OpDiv, guest.OpRem,
		guest.OpAnd, guest.OpOr, guest.OpXor, guest.OpShl, guest.OpShr,
		guest.OpSar, guest.OpSeq, guest.OpSne, guest.OpSlt, guest.OpSge,
		guest.OpSltu, guest.OpSgeu, guest.OpFadd, guest.OpFsub,
		guest.OpFmul, guest.OpFdiv, guest.OpFlt, guest.OpFle, guest.OpFeq,
	}
	for _, op := range alu {
		f.ALU(op, guest.R1, guest.R2, guest.R3)
	}
	f.Itof(guest.R1, guest.R2)
	f.Ftoi(guest.R1, guest.R2)
	f.Andi(guest.R1, guest.R2, 3)
	f.Ori(guest.R1, guest.R2, 3)
	l := f.NewLabel()
	f.Bind(l)
	for _, br := range []guest.Opcode{
		guest.OpBeq, guest.OpBne, guest.OpBlt, guest.OpBge, guest.OpBltu, guest.OpBgeu,
	} {
		f.Br(br, guest.R1, guest.R2, l)
	}
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	// Translate every block in the function; each must validate.
	addr := guest.TextBase
	for addr < im.TextEnd() {
		sb, err := dbi.Translate(im, addr)
		if err != nil {
			t.Fatalf("translate 0x%x: %v", addr, err)
		}
		if err := sb.Validate(); err != nil {
			t.Fatalf("block 0x%x: %v", addr, err)
		}
		// Advance past this block (count IMarks).
		n := 0
		for _, st := range sb.Stmts {
			if st.Kind == vex.SIMark {
				n++
			}
		}
		if n == 0 {
			n = 1
		}
		addr += uint64(n) * guest.InstrBytes
	}
}
