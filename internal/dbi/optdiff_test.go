package dbi

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/vex"
	"repro/internal/vm"
)

// FuzzOptimizeMatchesDirect holds the translation pipeline — Translate,
// Optimize, InstrumentAccesses and Compile — to the direct interpreter, which
// executes guest instructions one by one and never sees IR. Both IR engines
// run what Optimize outputs, so an optimizer bug is invisible to the engine
// differential and to the run-digest matrix; this is the test that can see
// one. The programs (optProgram) are built around register reuse: constant
// loads, accesses through registers the block just wrote, branches between
// two writes of one register, and wild accesses that fault in mid-block.
//
// Each program runs on the compiled engine with no instrumentation and with
// a batched InstrumentAccesses tool, each on the translator's blocks and on
// superblocks extended past conditional branches, whose side exits sit in
// mid-block. Every run must reproduce the direct interpreter's registers,
// memory, instruction count, exit code and fault; an instrumented run must
// deliver the access stream the direct interpreter's hooks see, or on a
// fault a prefix of it (the faulting segment is never flushed).
//
// Under `go test` the seed corpus is a fixed range of program seeds.
func FuzzOptimizeMatchesDirect(f *testing.F) {
	for seed := int64(1); seed <= 200; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		b := optProgram(seed)
		im, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		ref := &hookLog{}
		want := runOpt(t, im, ref, false)
		want.log = ref.log
		for _, arm := range []struct {
			name    string
			batched bool
			extend  bool
		}{
			{"none", false, false},
			{"batched", true, false},
			{"none/extended", false, true},
			{"batched/extended", true, true},
		} {
			var tool Tool = NopTool{}
			bl := &batchLog{}
			if arm.batched {
				tool = bl
			}
			got := runOpt(t, im, tool, arm.extend)
			got.log = bl.log
			if msg := diffOptRuns(got, want, arm.batched); msg != "" {
				t.Fatalf("seed %d, %s: %s", seed, arm.name, msg)
			}
		}
	})
}

// optRun is what a differential run is compared on.
type optRun struct {
	regs   [][guest.NumRegs]uint64
	mem    uint64
	instrs uint64
	exit   uint64
	fault  *vm.GuestFault
	log    []Access
}

// runOpt runs im under tool: the direct interpreter for a compile-time
// tool, the compiled engine otherwise. With extend, every slot of the
// compiled engine is filled with an extended superblock before the run.
func runOpt(t *testing.T, im *guest.Image, tool Tool, extend bool) optRun {
	t.Helper()
	m, err := vm.New(im, vm.NewHostRegistry(), vm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, tool)
	c.Validate = true
	if extend {
		for i := range c.code {
			code, err := c.compileExtended(guest.TextBase + uint64(i)*guest.InstrBytes)
			if err != nil {
				t.Fatal(err)
			}
			c.code[i] = code
		}
	}
	// The budget ends a run whose loop counter a wrong translation broke.
	var r optRun
	if err := m.RunOpts(vm.RunOpts{MaxInstrs: 1 << 20}); err != nil && !errors.As(err, &r.fault) {
		t.Fatal(err)
	}
	for _, th := range m.Threads() {
		r.regs = append(r.regs, th.Regs)
	}
	r.mem, r.instrs, r.exit = m.Mem.Hash(), m.InstrsExecuted, m.ExitCode()
	return r
}

// diffOptRuns describes how got differs from the direct interpreter's run,
// or returns "".
func diffOptRuns(got, want optRun, batched bool) string {
	switch {
	case (got.fault == nil) != (want.fault == nil):
		return "fault " + errString(got.fault) + ", direct interpreter " + errString(want.fault)
	case got.fault != nil && (got.fault.PC != want.fault.PC || got.fault.Addr != want.fault.Addr):
		return "fault " + got.fault.Error() + ", direct interpreter " + want.fault.Error()
	case !reflect.DeepEqual(got.regs, want.regs):
		return "registers differ from the direct interpreter's"
	case got.mem != want.mem:
		return "memory differs from the direct interpreter's"
	case got.instrs != want.instrs || got.exit != want.exit:
		return "instruction count or exit code differs from the direct interpreter's"
	case !batched:
		return ""
	}
	n := len(want.log)
	if want.fault != nil {
		n = min(len(got.log), n)
	}
	if !slices.Equal(got.log, want.log[:n]) {
		return "access stream differs from the direct interpreter's hooks"
	}
	return ""
}

func errString(f *vm.GuestFault) string {
	if f == nil {
		return "none"
	}
	return f.Error()
}

// hookLog is the reference tool: compile-time instrumentation, so the core
// runs the direct interpreter, which calls its hooks before each access.
type hookLog struct {
	NopTool
	log []Access
}

// AccessHooks implements CompileTimeTool.
func (h *hookLog) AccessHooks() (load, store vm.AccessHook) {
	hook := func(st bool) vm.AccessHook {
		return func(_ *vm.Thread, addr uint64, wd uint8, pc uint64) {
			h.log = append(h.log, Access{PC: pc, Addr: addr, Wd: wd, Store: st})
		}
	}
	return hook(false), hook(true)
}

// InstrumentsSym implements CompileTimeTool: every instruction is checked.
func (h *hookLog) InstrumentsSym(string) bool { return true }

// batchLog records the accesses InstrumentAccesses delivers.
type batchLog struct {
	NopTool
	log []Access
}

// Instrument implements Tool.
func (b *batchLog) Instrument(c *Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out, _, _ := c.InstrumentAccesses(sb, b)
	return out
}

// FlushAccesses implements AccessSink.
func (b *batchLog) FlushAccesses(_ *vm.Thread, batch Batch) {
	for i := range batch.Len() {
		b.log = append(b.log, Access{PC: batch.PC(i), Addr: batch.Addr(i), Wd: batch.Wd(i), Store: batch.Store(i)})
	}
}

// compileExtended runs the pipeline of compiled on a superblock that
// continues past up to three conditional branches along the fall-through
// path, the side exits VEX superblocks carry and this translator does not
// build: Optimize then sees exits between statements it may remove.
func (c *Core) compileExtended(addr uint64) (*vex.Compiled, error) {
	a := &c.arena
	a.reset()
	raw := a.block()
	if err := translateInto(raw, c.M.Image, addr); err != nil {
		return nil, err
	}
	for k := 0; k < 3; k++ {
		n := len(raw.Stmts)
		if raw.Stmts[n-1].Kind != vex.SExit || raw.Next.Kind != vex.KindConst {
			break
		}
		next := a.block()
		if err := translateInto(next, c.M.Image, raw.Next.Const); err != nil {
			return nil, err
		}
		base := vex.Temp(raw.NTemps)
		shift := func(e vex.Expr) vex.Expr {
			if e.Kind == vex.KindRdTmp {
				e.Tmp += base
			}
			return e
		}
		for _, s := range next.Stmts {
			switch s.Kind {
			case vex.SWrTmpExpr, vex.SWrTmpBinop, vex.SWrTmpUnop, vex.SWrTmpLoad:
				s.Tmp += base
			}
			s.E1, s.E2 = shift(s.E1), shift(s.E2)
			raw.Append(s)
		}
		raw.NTemps += next.NTemps
		raw.Next, raw.NextJK, raw.Aux = shift(next.Next), next.NextJK, next.Aux
	}
	sb := a.block()
	a.vx.Optimize(sb, raw)
	sb = c.tool.Instrument(c, sb)
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	return a.vx.Compile(sb)
}

// optProgram generates a random single-threaded program that rewrites and
// rereads a window of six registers in a short loop: constant loads (ldi, and
// ldi/ldih pairs), ALU operations and register copies, loads and stores
// through an address register the block just wrote, forward branches between
// two writes of one register, a binop repeated after a copy over one of its
// sources, calls through the link register and, for a third of the seeds, a
// load or store through a wild pointer between two writes of a register,
// which faults in mid-block on the first pass.
func optProgram(seed int64) *gbuild.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := gbuild.New()
	b.Global("arr", 256)
	f := b.Func("main", "opt.c")

	// r0..r5: the window; r8: wild pointer; r10: loop counter; r11: zero.
	win := func() uint8 { return uint8(rng.Intn(6)) }
	for r := uint8(0); r < 6; r++ {
		f.LdConst64(r, rng.Uint64())
	}
	f.Ldi(guest.R10, int32(2+rng.Intn(3)))
	f.Ldi(guest.R11, 0)
	head := f.NewLabel()
	f.Bind(head)

	alu := []guest.Opcode{
		guest.OpAdd, guest.OpSub, guest.OpMul, guest.OpXor, guest.OpOr,
		guest.OpShl, guest.OpShr, guest.OpSlt, guest.OpSltu, guest.OpSeq,
	}
	branches := []guest.Opcode{guest.OpBeq, guest.OpBne, guest.OpBlt, guest.OpBgeu}
	widths := []uint8{1, 2, 4, 8}
	// write puts a new value in rd: a constant or an ALU result.
	write := func(rd uint8) {
		switch rng.Intn(4) {
		case 0:
			f.Ldi(rd, rng.Int31())
		case 1:
			f.LdConst64(rd, rng.Uint64())
		case 2:
			f.Addi(rd, win(), int32(rng.Intn(64))-32)
		default:
			f.ALU(alu[rng.Intn(len(alu))], rd, win(), win())
		}
	}
	n := 8 + rng.Intn(24)
	faultAt := -1
	if rng.Intn(3) == 0 {
		faultAt = rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		if i == faultAt {
			rd := win()
			write(rd)
			f.LdConst64(guest.R8, 0xdead0000+uint64(rng.Intn(64)))
			if rng.Intn(2) == 0 {
				f.Ld(8, win(), guest.R8, 0)
			} else {
				f.St(8, guest.R8, 0, win())
			}
			write(rd)
		}
		switch rng.Intn(8) {
		case 0, 1:
			write(win())
		case 2:
			f.Mov(win(), win())
		case 3, 4:
			// An access through an address register just written.
			ra := win()
			wd := widths[rng.Intn(len(widths))]
			base := int32(rng.Intn(16)) * 8
			off := int32(rng.Intn((256-int(base))/int(wd))) * int32(wd)
			f.LoadSym(ra, "arr")
			if base != 0 {
				f.Addi(ra, ra, base)
			}
			if rng.Intn(2) == 0 {
				f.Ld(wd, win(), ra, off)
			} else {
				f.St(wd, ra, off, win())
			}
		case 5:
			// A branch between two writes of one register.
			rd := win()
			write(rd)
			skip := f.NewLabel()
			f.Br(branches[rng.Intn(len(branches))], win(), win(), skip)
			write(rd)
			f.Bind(skip)
		case 6:
			// One binop twice, a source register copied over
			// between the two.
			op, ra, rb := alu[rng.Intn(len(alu))], win(), win()
			f.ALU(op, win(), ra, rb)
			f.Mov(ra, win())
			f.ALU(op, win(), ra, rb)
		case 7:
			// A call through the link register, which the call
			// itself overwrites; the jump makes the target a
			// register the calling block has not written.
			next := f.NewLabel()
			f.LoadSym(guest.LR, "leaf")
			f.Jmp(next)
			f.Bind(next)
			f.CallReg(guest.LR)
		}
	}
	f.Addi(guest.R10, guest.R10, -1)
	f.Bne(guest.R10, guest.R11, head)
	for r := uint8(1); r < 6; r++ {
		f.ALU(guest.OpXor, guest.R0, guest.R0, r)
	}
	f.Hlt(guest.R0)

	f = b.Func("leaf", "opt.c")
	write(win())
	write(win())
	f.Ret()
	return b
}
