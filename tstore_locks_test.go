package repro

// Translation-store coverage for the lock subsystem: lockgrind is a
// translating tool (it instruments accesses and skips the __kmp* runtime),
// so its units live in the shared store under its own tool identity. Two
// properties are gated here: lock-program runs are bit-identical cold and
// warm under lockgrind, and
// differently-instrumenting tools that share a display name (the taskgrind
// registry variants) can never adopt each other's translations.

import (
	"bytes"
	"testing"

	"repro/internal/drb"
	"repro/internal/harness"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
)

// lgRun executes one lock benchmark under a registry tool with the given
// store configuration and fingerprints the outcome.
func lgRun(t *testing.T, bm drb.Benchmark, toolName string, s harness.Setup) (runPrint, *harness.Instance) {
	t.Helper()
	tl, _, err := toolreg.Make(toolName)
	if err != nil {
		t.Fatal(err)
	}
	out := &bytes.Buffer{}
	s.Tool, s.Stdout, s.Seed, s.Threads = tl, out, 1, 4
	res, inst, err := harness.BuildAndRun(bm.Build(), s)
	if err != nil {
		t.Fatalf("%s: %v", bm.Name, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: run failed: %v", bm.Name, res.Err)
	}
	report, _ := toolreg.Render(tl)
	return fingerprint(inst, report, out.String()), inst
}

// TestStoreEquivalenceLocks: lock programs under lockgrind — a cold run,
// the run that fills a store, and a warm run from the filled store produce
// bit-identical reports and machine states.
func TestStoreEquivalenceLocks(t *testing.T) {
	for _, name := range []string{"lock-100-mutex-counter", "lock-103-lock-order", "lock-104-condvar"} {
		bm, ok := drb.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		cold, _ := lgRun(t, bm, "lockgrind", harness.Setup{})

		cache := tstore.NewCache("")
		fill, _ := lgRun(t, bm, "lockgrind", harness.Setup{TStore: cache})
		diffPrints(t, name+"/lock-fill", cold, fill)

		warm, warmInst := lgRun(t, bm, "lockgrind", harness.Setup{TStore: cache})
		diffPrints(t, name+"/lock-warm", cold, warm)
		if warmInst.Core.Translations != 0 {
			t.Fatalf("%s: warm lockgrind run still translated %d blocks",
				name, warmInst.Core.Translations)
		}
		if warmInst.Core.SharedHits == 0 {
			t.Fatalf("%s: warm lockgrind run adopted nothing", name)
		}
	}
}

// TestStoreInvalidationToolIdentity: translation units are keyed by the
// tool's registry identity, not its display name. The taskgrind variants
// (taskgrind, taskgrind-naive) share Name() == "taskgrind" but instrument
// differently; against one shared store the second variant must translate
// everything itself, while a repeat run of the first adopts its own units.
// lockgrind, a third instrumenting identity, is isolated the same way.
func TestStoreInvalidationToolIdentity(t *testing.T) {
	bm, ok := drb.ByName("lock-100-mutex-counter")
	if !ok {
		t.Fatal("missing benchmark")
	}
	cache := tstore.NewCache("")

	_, first := lgRun(t, bm, "taskgrind", harness.Setup{TStore: cache})
	if first.Core.Translations == 0 {
		t.Fatal("priming run translated nothing")
	}

	// Same display name, different instrumentation: nothing adopted.
	_, naive := lgRun(t, bm, "taskgrind-naive", harness.Setup{TStore: cache})
	if naive.Core.SharedHits != 0 {
		t.Fatalf("taskgrind-naive adopted %d of taskgrind's units", naive.Core.SharedHits)
	}
	if naive.Core.Translations == 0 {
		t.Fatal("taskgrind-naive translated nothing")
	}

	// Third identity: lockgrind also starts cold on the same store.
	_, lg := lgRun(t, bm, "lockgrind", harness.Setup{TStore: cache})
	if lg.Core.SharedHits != 0 {
		t.Fatalf("lockgrind adopted %d units from other tools", lg.Core.SharedHits)
	}

	// And each identity's own units stay warm.
	for _, toolName := range []string{"taskgrind", "taskgrind-naive", "lockgrind"} {
		_, again := lgRun(t, bm, toolName, harness.Setup{TStore: cache})
		if again.Core.Translations != 0 {
			t.Fatalf("repeat %s run went cold: %d translations", toolName, again.Core.Translations)
		}
	}
}
