package vm_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/vm"
)

// buildSpawner builds a program where main spawns a worker thread through a
// test host call, both increment a shared counter in a loop, and main waits
// for the worker via a blocking host call.
func buildSpawner(t *testing.T) *guest.Image {
	t.Helper()
	b := gbuild.New()
	b.Global("counter", 8)
	b.Global("done", 8)

	w := b.Func("worker", "s.c")
	loop := w.NewLabel()
	w.Ldi(guest.R3, 0)
	w.Bind(loop)
	w.LoadSym(guest.R1, "counter")
	w.Ld(8, guest.R2, guest.R1, 0)
	w.Addi(guest.R2, guest.R2, 1)
	w.St(8, guest.R1, 0, guest.R2)
	w.Addi(guest.R3, guest.R3, 1)
	w.Ldi(guest.R2, 10)
	w.Blt(guest.R3, guest.R2, loop)
	w.Hcall("signal_done")
	w.Hlt(guest.R0)

	f := b.Func("main", "s.c")
	f.Hcall("spawn_worker")
	wait := f.NewLabel()
	f.Bind(wait)
	f.Hcall("wait_done") // 1 when done, 0 blocked-retry
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, wait)
	f.LoadSym(guest.R1, "counter")
	f.Ld(8, guest.R0, guest.R1, 0)
	f.Hlt(guest.R0)

	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// testHost registers the spawn/signal/wait host calls.
type testHost struct {
	done   bool
	waiter *vm.Thread
}

func (h *testHost) install(reg *vm.HostRegistry, im *guest.Image) {
	reg.Register("spawn_worker", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
		m.NewThread(im.SymbolByName("worker").Addr, 0)
		return vm.HostResult{}
	})
	reg.Register("signal_done", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
		h.done = true
		if h.waiter != nil {
			h.waiter.Wake()
		}
		return vm.HostResult{}
	})
	reg.Register("wait_done", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
		if h.done {
			return vm.HostResult{Ret: 1}
		}
		h.waiter = t
		return vm.HostResult{Ret: 0, Action: vm.HostBlock, Reason: "wait_done"}
	})
}

func TestThreadSpawnBlockWake(t *testing.T) {
	im := buildSpawner(t)
	h := &testHost{}
	reg := vm.NewHostRegistry()
	h.install(reg, im)
	m, err := vm.New(im, reg, vm.Config{Seed: 3, Slice: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 10 {
		t.Fatalf("counter = %d, want 10", m.ExitCode())
	}
	if len(m.Threads()) != 2 {
		t.Fatalf("threads = %d", len(m.Threads()))
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, uint64) {
		im := buildSpawner(t)
		h := &testHost{}
		reg := vm.NewHostRegistry()
		h.install(reg, im)
		m, _ := vm.New(im, reg, vm.Config{Seed: seed, Slice: 2})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.InstrsExecuted, m.Switches
	}
	i1, s1 := run(7)
	i2, s2 := run(7)
	if i1 != i2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", i1, s1, i2, s2)
	}
}

func TestDeadlockDetection(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "d.c")
	f.Hcall("block_forever")
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	reg := vm.NewHostRegistry()
	reg.Register("block_forever", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
		return vm.HostResult{Action: vm.HostBlock, Reason: "forever"}
	})
	m, _ := vm.New(im, reg, vm.Config{Seed: 1})
	err = m.Run()
	if !errors.Is(err, vm.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "forever") {
		t.Fatalf("deadlock reason missing: %v", err)
	}
}

func TestBlockBudget(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "l.c")
	loop := f.NewLabel()
	f.Bind(loop)
	f.Jmp(loop) // infinite loop
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(im, vm.NewHostRegistry(), vm.Config{Seed: 1})
	if err := m.RunOpts(vm.RunOpts{MaxBlocks: 100}); err == nil {
		t.Fatal("budget exhaustion not reported")
	}
}

func TestTLSAndStackAssignment(t *testing.T) {
	b := gbuild.New()
	b.TLSGlobal("x", 8)
	f := b.Func("main", "t.c")
	// Return the TP register (must equal the thread's TLS base).
	f.Mov(guest.R0, guest.TP)
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(im, vm.NewHostRegistry(), vm.Config{})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	main := m.Thread(0)
	if m.ExitCode() != main.TLSBase {
		t.Fatalf("TP = %#x, TLSBase = %#x", m.ExitCode(), main.TLSBase)
	}
	if main.TLSBase < guest.TLSBase || main.TLSBase >= guest.TLSLimit {
		t.Fatalf("TLS base outside region: %#x", main.TLSBase)
	}
	if main.StackHi <= main.StackLo || main.StackHi > guest.StackRegionTop {
		t.Fatalf("bad stack bounds: [%#x, %#x)", main.StackLo, main.StackHi)
	}
}

func TestStdoutPlumbing(t *testing.T) {
	b := gbuild.New()
	b.GlobalString("msg", "hello guest\n")
	f := b.Func("main", "p.c")
	f.LoadSym(guest.R0, "msg")
	f.Hcall("print_str")
	f.Ldi(guest.R0, 0)
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	reg := vm.NewHostRegistry()
	reg.Register("print_str", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
		m.Stdout.Write([]byte(m.Mem.ReadCString(t.Regs[guest.R0])))
		return vm.HostResult{}
	})
	var out bytes.Buffer
	m, _ := vm.New(im, reg, vm.Config{Stdout: &out})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "hello guest\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

// TestTextLoaded: every word of the image's text reads back from guest
// memory, over text that spans several pages.
func TestTextLoaded(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "t.c")
	for i := int32(0); i < 1200; i++ {
		f.Addi(guest.R1, guest.R1, i)
	}
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(im, vm.NewHostRegistry(), vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range im.Text {
		if v := m.Mem.Load(guest.TextBase+uint64(i)*guest.InstrBytes, 8); v != w {
			t.Fatalf("text word %d = %#x, image has %#x", i, v, w)
		}
	}
}

func TestUnresolvedImportFails(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "u.c")
	f.Hcall("not_registered")
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.New(im, vm.NewHostRegistry(), vm.Config{}); err == nil {
		t.Fatal("unresolved host import accepted")
	}
}

func TestShadowCallStack(t *testing.T) {
	b := gbuild.New()
	var depth uint64
	f := b.Func("main", "c.c")
	f.Call("a")
	f.Hlt(guest.R0)
	a := b.Func("a", "c.c")
	a.Enter(0)
	a.Call("bfn")
	a.Leave()
	bf := b.Func("bfn", "c.c")
	bf.Enter(0)
	bf.Hcall("probe")
	bf.Leave()
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	reg := vm.NewHostRegistry()
	var traceLen int
	reg.Register("probe", func(m *vm.Machine, th *vm.Thread) vm.HostResult {
		depth = uint64(len(th.CallStack))
		traceLen = len(th.StackTrace(th.PC))
		return vm.HostResult{}
	})
	m, _ := vm.New(im, reg, vm.Config{})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 2 {
		t.Fatalf("call depth at probe = %d, want 2", depth)
	}
	if traceLen != int(depth)+1 {
		t.Fatalf("trace len %d, depth %d", traceLen, depth)
	}
	if len(m.Thread(0).CallStack) != 0 {
		t.Fatal("shadow stack not unwound at exit")
	}
}

func TestHooksFire(t *testing.T) {
	im := buildSpawner(t)
	h := &testHost{}
	reg := vm.NewHostRegistry()
	h.install(reg, im)
	m, _ := vm.New(im, reg, vm.Config{Seed: 2, Slice: 2})
	var starts, exits, switches int
	m.Hooks.ThreadStart = func(*vm.Thread) { starts++ }
	m.Hooks.ThreadExit = func(*vm.Thread) { exits++ }
	m.Hooks.Switch = func(*vm.Thread) { switches++ }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Main existed before the hook was set; the worker fires it.
	if starts != 1 || exits != 2 || switches == 0 {
		t.Fatalf("starts=%d exits=%d switches=%d", starts, exits, switches)
	}
}
