package dbi_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dbi"
	"repro/internal/dbi/dbitest"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/tstore"
	"repro/internal/vex"
	"repro/internal/vm"
)

// arenaTool instruments through InstrumentAccesses, or through the
// per-access reference once perAccess is set, and leaves the blocks of
// "plain" alone: Instrument returns its input, the core's arena block.
type arenaTool struct {
	countSink
	perAccess bool
}

func (at *arenaTool) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	if sym := c.SymbolAt(sb.GuestAddr); sym != nil && sym.Name == "plain" {
		return sb
	}
	if at.perAccess {
		return dbitest.PerAccessTool{Tool: &at.countSink}.Instrument(c, sb)
	}
	return at.countSink.Instrument(c, sb)
}

// irSnapshot renders a block's IR with every dirty call's arguments and
// Meta words.
func irSnapshot(sb *vex.SuperBlock) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d temps\n%s", sb.NTemps, sb)
	for _, s := range sb.Stmts {
		if s.Kind == vex.SDirty {
			fmt.Fprintf(&b, "%s %v %v\n", s.Name, s.Args, s.Meta)
		}
	}
	return b.String()
}

// codeSnapshot renders a block's compiled ops and side tables.
func codeSnapshot(code *vex.Compiled) string {
	var b strings.Builder
	fmt.Fprintf(&b, "frame %d instrs %d chains %d next %d/%#x/%d\n",
		code.NFrame, code.NInstrs, code.NChains, code.NextKind, code.NextImm, code.NextChain)
	for i, u := range code.Ops {
		fmt.Fprintf(&b, "%d %d %s %d %d %d %d %#x pc=%#x ic=%d",
			u.Code, u.Wd, u.Op, u.Dst, u.A, u.B, u.ChainIdx, u.Imm, code.PCs[i], code.ICs[i])
		if d := u.Dirty; d != nil {
			fmt.Fprintf(&b, " %s %v %v %d %v %d", d.Name, d.Args, d.Meta, d.Tmp, d.HasTmp, d.InstrsBefore)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCachedBlocksDoNotAliasArena translates block A, then 25 more blocks
// through the same core's arena (instrumented, left alone by the tool, and
// rebuilt by the per-access reference), and checks that A's cached IR, its
// compiled code and its shared-store unit are exactly as they were.
func TestCachedBlocksDoNotAliasArena(t *testing.T) {
	const blocks = 20
	b := gbuild.New()
	arr := b.Global("arr", 16*blocks)
	f := b.Func("main", "arena.c")
	end := f.NewLabel()
	for i := 0; i < blocks; i++ {
		off := int32(8 * i)
		f.Ld(8, guest.R2, guest.R6, off)
		f.Addi(guest.R2, guest.R2, int32(i+1))
		f.St(8, guest.R6, off, guest.R2)
		f.St(8, guest.R6, off+8*blocks, guest.R2)
		f.Bne(guest.R7, guest.R8, end) // never taken: ends the block
		if i%4 == 3 {
			f.Call("plain")
		}
	}
	f.Bind(end)
	f.Hlt(guest.R0)
	p := b.Func("plain", "arena.c")
	p.Ld(8, guest.R3, guest.R6, 0)
	p.St(8, guest.R6, 8, guest.R3)
	p.Ret()
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(im, vm.NewHostRegistry(), vm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tool := &arenaTool{}
	core := dbi.New(m, tool)
	core.Shared = tstore.NewStore(tstore.Key{Image: tstore.ImageHash(im), Tool: "arena", Engine: dbi.EngineCompiled})
	th := m.Threads()[0]
	th.Regs[guest.R6] = arr

	step := func() {
		t.Helper()
		if _, err := m.Eng.RunBlock(m, th); err != nil {
			t.Fatal(err)
		}
	}
	a := guest.TextBase
	step()
	u := core.Shared.Get(a)
	if core.BlockIR(a) == nil || u == nil || u.Code == nil {
		t.Fatal("block A was not translated, compiled and published")
	}
	ir, code := irSnapshot(core.BlockIR(a)), codeSnapshot(u.Code)
	unitIR := irSnapshot(u.SB)
	if !strings.Contains(ir, "flush_accesses") {
		t.Fatalf("block A is not instrumented:\n%s", ir)
	}

	for i := 0; core.Translations < 26 && i < 200; i++ {
		if core.Translations == 10 {
			tool.perAccess = true
		}
		step()
	}
	if core.Translations < 26 {
		t.Fatalf("only %d blocks translated", core.Translations)
	}

	if got := irSnapshot(core.BlockIR(a)); got != ir {
		t.Errorf("cached IR of A changed:\nbefore:\n%s\nafter:\n%s", ir, got)
	}
	u = core.Shared.Get(a)
	if got := codeSnapshot(u.Code); got != code {
		t.Errorf("compiled code of A changed:\nbefore:\n%s\nafter:\n%s", code, got)
	}
	if got := irSnapshot(u.SB); got != unitIR {
		t.Errorf("shared unit of A changed:\nbefore:\n%s\nafter:\n%s", unitIR, got)
	}
}
