package dbi_test

import (
	"runtime"
	"testing"

	"repro/internal/dbi"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/vex"
	"repro/internal/vm"
)

// buildSelfLoop builds a block that loads, stores and jumps back to itself:
// one RunBlock call executes exactly one block and leaves the thread parked
// on the same block, which makes per-dispatch allocation measurable.
func buildSelfLoop(t testing.TB) (*guest.Image, uint64) {
	t.Helper()
	b := gbuild.New()
	arr := b.Global("arr", 64)
	f := b.Func("main", "loop.c")
	head := f.NewLabel()
	f.Bind(head)
	f.Ld(8, guest.R2, guest.R6, 0)
	f.Addi(guest.R2, guest.R2, 1)
	f.St(8, guest.R6, 0, guest.R2)
	f.Jmp(head)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return im, arr
}

// engineAllocs measures steady-state heap allocations per dispatched block
// with the given tool loaded.
func engineAllocs(t *testing.T, engine string, tool dbi.Tool) float64 {
	t.Helper()
	im, arr := buildSelfLoop(t)
	m, err := vm.New(im, vm.NewHostRegistry(), vm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	core := dbi.New(m, tool)
	if err := core.SelectEngine(engine); err != nil {
		t.Fatal(err)
	}
	th := m.Threads()[0]
	th.Regs[guest.R6] = arr
	// Prime: translate and compile the loop block.
	for i := 0; i < 8; i++ {
		if _, err := m.Eng.RunBlock(m, th); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := m.Eng.RunBlock(m, th); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunBlockDoesNotAllocate is the allocs/op guard: the hot dispatch path
// of both engines must stay allocation-free in steady state (instrumented
// block with a load, a store, two dirty calls and a jump to itself). A
// regression here is the paper's 100x overhead quietly getting worse.
func TestRunBlockDoesNotAllocate(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		if n := engineAllocs(t, engine, &countTool{}); n != 0 {
			t.Errorf("%s engine: %.1f allocs per block, want 0", engine, n)
		}
	}
}

// countSink instruments through InstrumentAccesses and only counts what it
// is handed — no retention, so any steady-state allocation measured below
// belongs to the delivery machinery itself.
type countSink struct {
	dbi.NopTool
	loads, stores uint64
}

func (cs *countSink) Name() string { return "countsink" }

func (cs *countSink) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out, _, _ := c.InstrumentAccesses(sb, cs)
	return out
}

// FlushAccesses implements dbi.AccessSink.
func (cs *countSink) FlushAccesses(t *vm.Thread, b dbi.Batch) {
	for i := range b.Len() {
		if b.Store(i) {
			cs.stores++
		} else {
			cs.loads++
		}
	}
}

// TestDeliveryDoesNotAllocate extends the guard to the access-delivery
// path: flushing a batch into a sink must not allocate in steady state —
// the sink reads the flush call's arguments in place.
func TestDeliveryDoesNotAllocate(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		if n := engineAllocs(t, engine, &countSink{}); n != 0 {
			t.Errorf("%s engine: %.1f allocs per block, want 0", engine, n)
		}
	}
}

// TestColdTranslationAllocs bounds what one cold translation allocates:
// every iteration empties the slot table and runs the self-loop block once,
// so it translates, instruments through InstrumentAccesses and compiles the
// block from scratch. The pipeline's intermediates live in the core's
// arena; what remains is the compiled code and the flush site.
func TestColdTranslationAllocs(t *testing.T) {
	im, arr := buildSelfLoop(t)
	m, err := vm.New(im, vm.NewHostRegistry(), vm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	core := dbi.New(m, &countSink{})
	th := m.Threads()[0]
	th.Regs[guest.R6] = arr
	cold := func() {
		core.DropCompiled()
		if _, err := m.Eng.RunBlock(m, th); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cold()
	}
	const iters = 2000
	allocs := testing.AllocsPerRun(iters, cold)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		cold()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / iters
	t.Logf("cold translation: %.1f allocs, %.0f bytes", allocs, bytes)
	if allocs > 20 || bytes > 4096 {
		t.Errorf("cold translation: %.1f allocs and %.0f bytes, want <= 20 and <= 4096", allocs, bytes)
	}
}
