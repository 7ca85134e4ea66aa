package dbi_test

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dbi"
	"repro/internal/dbi/dbitest"
	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/omp"
	"repro/internal/vex"
	"repro/internal/vm"
)

// accessRec is one tool-visible memory access: what a real analysis tool
// would base its verdicts on. If the engines disagree on this stream, they
// are not interchangeable no matter how equal the final state looks.
type accessRec struct {
	TID   int
	PC    uint64
	Store bool
	Addr  uint64
	Wd    uint8
}

// logTool records the access stream it is handed. The per-access form gets
// one dirty call per guest load and store, before the access executes (the
// reference delivery, dbitest.PerAccess); the batched form gets the same
// stream through the core's InstrumentAccesses path, one flush per
// superblock segment.
type logTool struct {
	dbi.NopTool
	batched bool
	log     []accessRec
}

func (lt *logTool) Name() string { return "log" }

func (lt *logTool) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	if lt.batched {
		out, _, _ := c.InstrumentAccesses(sb, lt)
		return out
	}
	return dbitest.PerAccess(sb, lt)
}

// FlushAccesses implements dbi.AccessSink.
func (lt *logTool) FlushAccesses(t *vm.Thread, b dbi.Batch) {
	for i := range b.Len() {
		lt.log = append(lt.log, accessRec{TID: t.ID, PC: b.PC(i), Store: b.Store(i), Addr: b.Addr(i), Wd: b.Wd(i)})
	}
}

// engineState is the full observable outcome of a run: guest-architectural
// state plus the tool's view of it, and the core's delivery counters.
type engineState struct {
	Exit   uint64
	Instrs uint64
	Blocks uint64
	Regs   map[int][guest.NumRegs]uint64
	Mem    uint64
	Log    []accessRec

	DirtyCalls, Delivered uint64
}

// runEngine executes the program built by mk with tool on the given engine
// and returns its observable state.
func runEngine(t *testing.T, mk func() *gbuild.Builder, engine string, tool *logTool, threads int, seed uint64) engineState {
	t.Helper()
	res, inst, err := harness.BuildAndRun(mk(), harness.Setup{
		Tool: tool, Seed: seed, Threads: threads, Stdout: io.Discard,
		Engine: engine,
	})
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: run: %v", engine, res.Err)
	}
	st := engineState{
		Exit:       res.ExitCode,
		Instrs:     inst.M.InstrsExecuted,
		Blocks:     inst.M.BlocksExecuted,
		Regs:       map[int][guest.NumRegs]uint64{},
		Mem:        inst.M.Mem.Hash(),
		Log:        tool.log,
		DirtyCalls: inst.Core.DirtyCalls,
		Delivered:  inst.Core.AccessesDelivered,
	}
	for _, th := range inst.M.Threads() {
		st.Regs[th.ID] = th.Regs
	}
	return st
}

// arm is one way of running a program that diffEngines holds to the oracle:
// an engine, and the per-access or the batched logTool.
type arm struct {
	engine  string
	batched bool
}

func (a arm) String() string {
	if a.batched {
		return a.engine + "/batched"
	}
	return a.engine + "/per-access"
}

var (
	// compiledArm is the engine differential: the compiled engine against
	// the IR interpreter, same per-access tool.
	compiledArm = arm{engine: dbi.EngineCompiled}
	// batchedArms are the delivery differential: the batched path on each
	// engine against per-access delivery.
	batchedArms = []arm{{dbi.EngineIR, true}, {dbi.EngineCompiled, true}}
)

// diffEngines runs mk under the oracle (the IR interpreter with the
// per-access logTool) and under each arm, and asserts every arm reproduces
// the oracle's exit code, counts, registers, memory and access log bit for
// bit. A batched arm must also have delivered every logged access through
// its flushes and entered the tool at most once per access.
func diffEngines(t *testing.T, name string, mk func() *gbuild.Builder, threads int, seed uint64, arms ...arm) {
	t.Helper()
	want := runEngine(t, mk, dbi.EngineIR, &logTool{}, threads, seed)
	for _, a := range arms {
		got := runEngine(t, mk, a.engine, &logTool{batched: a.batched}, threads, seed)
		if got.Exit != want.Exit {
			t.Fatalf("%s: %v: exit %d, oracle %d", name, a, got.Exit, want.Exit)
		}
		if got.Instrs != want.Instrs || got.Blocks != want.Blocks {
			t.Fatalf("%s: %v: instrs=%d blocks=%d, oracle instrs=%d blocks=%d",
				name, a, got.Instrs, got.Blocks, want.Instrs, want.Blocks)
		}
		if !reflect.DeepEqual(got.Regs, want.Regs) {
			t.Fatalf("%s: %v: final registers diverge from the oracle", name, a)
		}
		if got.Mem != want.Mem {
			t.Fatalf("%s: %v: memory hash %#x, oracle %#x", name, a, got.Mem, want.Mem)
		}
		if len(got.Log) != len(want.Log) {
			t.Fatalf("%s: %v: access log length %d, oracle %d", name, a, len(got.Log), len(want.Log))
		}
		for i := range want.Log {
			if got.Log[i] != want.Log[i] {
				t.Fatalf("%s: %v: access %d = %+v, oracle %+v", name, a, i, got.Log[i], want.Log[i])
			}
		}
		if !a.batched {
			continue
		}
		if n := uint64(len(got.Log)); got.Delivered != n || got.DirtyCalls > n {
			t.Fatalf("%s: %v: delivered %d accesses in %d dirty calls for %d logged",
				name, a, got.Delivered, got.DirtyCalls, n)
		}
	}
}

// TestDifferentialDRB proves engine equivalence on every DataRaceBench/TMB
// microbenchmark in the suite — the paper's Table I workload.
func TestDifferentialDRB(t *testing.T) {
	for _, b := range drb.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			diffEngines(t, b.Name, b.Build, 4, 1, compiledArm)
		})
	}
}

// TestDeliveryDifferentialDRB holds batched delivery on each engine to the
// per-access oracle on the same suite.
func TestDeliveryDifferentialDRB(t *testing.T) {
	for _, a := range batchedArms {
		a := a
		for _, b := range drb.All() {
			b := b
			t.Run(a.engine+"/"+b.Name, func(t *testing.T) {
				diffEngines(t, b.Name, b.Build, 4, 1, a)
			})
		}
	}
}

// TestDifferentialLulesh covers the proxy application (nested parallelism,
// task dependences, reductions, heavy host-call traffic) on every arm.
func TestDifferentialLulesh(t *testing.T) {
	mk := func() *gbuild.Builder {
		b, err := lulesh.Build(lulesh.Params{S: 4, TEL: 2, TNL: 2, Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	diffEngines(t, "lulesh", mk, 4, 1, append([]arm{compiledArm}, batchedArms...)...)
}

// TestDifferentialListing4 covers the paper's running example (OMP tasks).
func TestDifferentialListing4(t *testing.T) {
	diffEngines(t, "task.c", buildListing4, 4, 1, compiledArm)
}

// TestDeliveryDifferentialListing4 holds batched delivery to the oracle on
// the running example.
func TestDeliveryDifferentialListing4(t *testing.T) {
	diffEngines(t, "task.c", buildListing4, 4, 1, batchedArms...)
}

func buildListing4() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("xptr", 8)
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2
	task := func(name string, line int, val int32) {
		f := b.Func(name, "task.c")
		f.Line(line)
		f.LoadSym(r1, "xptr")
		f.Ld(8, r1, r1, 0)
		f.Ldi(r2, val)
		f.St(4, r1, 0, r2)
		f.Ret()
	}
	task("task_a", 8, 42)
	task("task_b", 11, 43)
	f := b.Func("micro", "task.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_a"})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_b"})
	})
	f.Leave()
	f = b.Func("main", "task.c")
	f.Enter(0)
	f.Ldi(r0, 8)
	f.Hcall("malloc")
	f.LoadSym(r1, "xptr")
	f.St(8, r1, 0, r0)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 0)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}

// fuzzProgram deterministically generates a random single-threaded guest
// program: ALU soup over a register window, loads and stores into a global
// array at random aligned offsets, forward branches, all wrapped in a
// bounded countdown loop so blocks re-execute (exercising the translation
// caches, not just translation).
func fuzzProgram(seed int64) *gbuild.Builder {
	rng := rand.New(rand.NewSource(seed))
	b := gbuild.New()
	b.Global("arr", 256)
	f := b.Func("main", fmt.Sprintf("fuzz%d.c", seed))

	// r10 = loop counter, r11 = base of arr, r0..r7 = data window.
	f.LoadSym(guest.R11, "arr")
	for r := uint8(0); r < 8; r++ {
		f.Ldi(r, rng.Int31())
	}
	f.Ldi(guest.R10, int32(2+rng.Intn(6)))
	f.Ldi(guest.R12, 0)
	head := f.NewLabel()
	f.Bind(head)

	alu := []guest.Opcode{
		guest.OpAdd, guest.OpSub, guest.OpMul, guest.OpDiv, guest.OpRem,
		guest.OpAnd, guest.OpOr, guest.OpXor, guest.OpShl, guest.OpShr,
		guest.OpSar, guest.OpSeq, guest.OpSne, guest.OpSlt, guest.OpSltu,
	}
	widths := []uint8{1, 2, 4, 8}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		rd := uint8(rng.Intn(8))
		rs1 := uint8(rng.Intn(8))
		rs2 := uint8(rng.Intn(8))
		switch rng.Intn(6) {
		case 0, 1, 2:
			f.ALU(alu[rng.Intn(len(alu))], rd, rs1, rs2)
		case 3:
			wd := widths[rng.Intn(len(widths))]
			off := int32(rng.Intn(256/int(wd))) * int32(wd)
			f.St(wd, guest.R11, off, rs1)
		case 4:
			wd := widths[rng.Intn(len(widths))]
			off := int32(rng.Intn(256/int(wd))) * int32(wd)
			f.Ld(wd, rd, guest.R11, off)
		case 5:
			// Forward branch over a couple of ops: both paths stay
			// inside the loop body.
			skip := f.NewLabel()
			f.Br(guest.OpBeq, rs1, rs2, skip)
			f.ALU(alu[rng.Intn(len(alu))], rd, rs1, rs2)
			f.Jmp(skip) // adjacent unconditional jump: ends a block
			f.Bind(skip)
		}
	}
	f.Addi(guest.R10, guest.R10, -1)
	f.Bne(guest.R10, guest.R12, head)

	// Fold the window into r0 so the exit code depends on everything.
	for r := uint8(1); r < 8; r++ {
		f.ALU(guest.OpXor, guest.R0, guest.R0, r)
	}
	f.Andi(guest.R0, guest.R0, 0xff)
	f.Hlt(guest.R0)
	return b
}

// TestDifferentialFuzz runs generated programs under both engines.
func TestDifferentialFuzz(t *testing.T) {
	fuzzDiff(t, compiledArm)
}

// TestDeliveryDifferentialFuzz holds batched delivery to the oracle on the
// generated programs.
func TestDeliveryDifferentialFuzz(t *testing.T) {
	fuzzDiff(t, batchedArms...)
}

func fuzzDiff(t *testing.T, arms ...arm) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mk := func() *gbuild.Builder { return fuzzProgram(seed) }
			diffEngines(t, fmt.Sprintf("fuzz%d", seed), mk, 1, uint64(seed), arms...)
		})
	}
}
