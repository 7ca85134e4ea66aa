package dbi_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dbi"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/tools/archer"
)

func TestCompiledEngineIsDefaultAndChains(t *testing.T) {
	im := buildFib(t, 12)
	tool := &countTool{}
	m, core, _ := newMachine(t, im, tool, 1)
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 144 {
		t.Fatalf("fib(12) = %d, want 144", m.ExitCode())
	}
	if core.Compiles == 0 {
		t.Fatal("nothing compiled: the compiled engine is not the default")
	}
	if core.Compiles != core.Translations {
		t.Errorf("Compiles=%d Translations=%d, want equal (one lowering per translation)",
			core.Compiles, core.Translations)
	}
	// Every block is translated once, on its first dispatch, and every
	// later dispatch is served from its slot. Nothing chains.
	if core.CacheMisses != core.Translations || core.CacheHits+core.CacheMisses != m.BlocksExecuted {
		t.Errorf("CacheHits=%d CacheMisses=%d Translations=%d over %d blocks",
			core.CacheHits, core.CacheMisses, core.Translations, m.BlocksExecuted)
	}
	if n := len(core.CachedBlocks()); uint64(n) != core.Translations {
		t.Errorf("%d cached blocks, %d translations", n, core.Translations)
	}
	if core.ChainHits != 0 || core.ChainMisses != 0 {
		t.Errorf("ChainHits=%d ChainMisses=%d, want 0", core.ChainHits, core.ChainMisses)
	}
	if tool.loads == 0 || tool.stores == 0 {
		t.Fatalf("instrumentation lost: loads=%d stores=%d", tool.loads, tool.stores)
	}
}

func TestSelectEngine(t *testing.T) {
	im := buildFib(t, 8)
	_, core, _ := newMachine(t, im, &countTool{}, 1)
	if err := core.SelectEngine("bogus"); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("want unknown-engine error, got %v", err)
	}
	if err := core.SelectEngine(dbi.EngineIR); err != nil {
		t.Fatal(err)
	}
	if err := core.Run(); err != nil {
		t.Fatal(err)
	}
	if core.Compiles != 0 {
		t.Fatalf("IR engine compiled %d blocks", core.Compiles)
	}

	// A compile-time tool (Archer) fixes the direct engine; overriding it
	// would silently drop its access hooks.
	_, core2, _ := newMachine(t, im, archer.New(), 1)
	if err := core2.SelectEngine(dbi.EngineCompiled); err == nil || !strings.Contains(err.Error(), "fixed") {
		t.Fatalf("want engine-fixed error, got %v", err)
	}
}

// TestBadDispatchTargets calls two PCs the translator refuses after the
// block at leaf has run and filled its slot: leaf+4, which falls in leaf's
// slot, and the first address past the text. Both engines must fail with
// the translator's error naming the PC, run no block there and count no
// translation for it.
func TestBadDispatchTargets(t *testing.T) {
	b := gbuild.New()
	f := b.Func("main", "bad.c")
	f.Call("leaf")
	f.CallReg(guest.R6)
	f.Hlt(guest.R0)
	b.Func("leaf", "bad.c").Ret()
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	leaf := im.SymbolByName("leaf").Addr
	for _, bad := range []uint64{leaf + 4, im.TextEnd()} {
		var msgs []string
		for _, engine := range []string{dbi.EngineCompiled, dbi.EngineIR} {
			m, core, _ := newMachine(t, im, &countTool{}, 1)
			if err := core.SelectEngine(engine); err != nil {
				t.Fatal(err)
			}
			m.Threads()[0].Regs[guest.R6] = bad
			err := core.Run()
			if want := fmt.Sprintf("bad fetch address %#x", bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s engine, call to %#x: err %v, want %q", engine, bad, err, want)
			}
			// main's two blocks and leaf, once each.
			if m.BlocksExecuted != 3 || core.Translations != 3 {
				t.Fatalf("%s engine, call to %#x: %d blocks, %d translations, want 3 and 3",
					engine, bad, m.BlocksExecuted, core.Translations)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Fatalf("call to %#x: compiled %q, ir %q", bad, msgs[0], msgs[1])
		}
	}
}

func TestCompiledHandlesValidateAndHostCalls(t *testing.T) {
	// The malloc test exercises JKHostCall, allocation stacks and PopFrame
	// under the compiled engine (newMachine sets Validate).
	im := buildFib(t, 12)
	mIR, coreIR, _ := newMachine(t, im, &countTool{}, 7)
	if err := coreIR.SelectEngine(dbi.EngineIR); err != nil {
		t.Fatal(err)
	}
	if err := coreIR.Run(); err != nil {
		t.Fatal(err)
	}
	mC, coreC, _ := newMachine(t, im, &countTool{}, 7)
	if err := coreC.Run(); err != nil {
		t.Fatal(err)
	}
	if mIR.ExitCode() != mC.ExitCode() || mIR.InstrsExecuted != mC.InstrsExecuted {
		t.Fatalf("ir exit=%d instrs=%d, compiled exit=%d instrs=%d",
			mIR.ExitCode(), mIR.InstrsExecuted, mC.ExitCode(), mC.InstrsExecuted)
	}
}

func TestEngineInstrumentationParity(t *testing.T) {
	// Both engines must call the same dirty helpers the same number of
	// times — the tool-facing half of engine equivalence.
	im := buildFib(t, 11)
	irTool, cTool := &countTool{}, &countTool{}

	_, coreIR, _ := newMachine(t, im, irTool, 5)
	if err := coreIR.SelectEngine(dbi.EngineIR); err != nil {
		t.Fatal(err)
	}
	if err := coreIR.Run(); err != nil {
		t.Fatal(err)
	}
	_, coreC, _ := newMachine(t, im, cTool, 5)
	if err := coreC.Run(); err != nil {
		t.Fatal(err)
	}
	if irTool.loads != cTool.loads || irTool.stores != cTool.stores {
		t.Fatalf("tool callbacks diverge: ir loads=%d stores=%d, compiled loads=%d stores=%d",
			irTool.loads, irTool.stores, cTool.loads, cTool.stores)
	}
}
