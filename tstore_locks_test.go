package repro

// Translation-store coverage for the lock subsystem: lockgrind is a
// translating tool (it instruments accesses and skips the __kmp* runtime),
// so its units live in the shared store under its own tool identity.
// Lock-program runs are bit-identical cold and warm under lockgrind.
// TestStoreInvalidationToolIdentity (tstore_equiv_test.go) checks that
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
