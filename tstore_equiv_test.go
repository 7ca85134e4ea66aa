package repro

// Cache-equivalence differential suite for the translation store: a run
// that resolves its translations from the shared store must be
// bit-identical to a cold run that translates everything itself.
// "Bit-identical" is the resume-fuzz oracle: the rendered tool report,
// guest stdout, the full guest memory hash, the machine state digest, exit
// code and the deterministic work counters.
// Translation-side counters (Translations, SharedHits, translate/compile
// nanos, instrument-time tallies) legitimately differ — they measure where
// the translation happened, which is exactly what the store changes.
// The digest matrix (digest_matrix_test.go) holds the same cold, filling
// and warm runs of every row to the IR oracle's harness.Digest. The tests
// after the equivalence tests check what a digest cannot: programs and tool
// identities never adopt each other's translations, 16 concurrent workers
// sharing one store (capped or not) compute the cold run's digest, and a
// sweep translates about one image's worth in total.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/progs"
	"repro/internal/tstore"
)

// runPrint is one run's complete observable outcome.
type runPrint struct {
	report string
	stdout string
	gmem   uint64
	state  uint64
	blocks uint64
	instrs uint64
	exit   uint64
	dirty  uint64
	acc    uint64
	// stmts is the IR statement count the cache footprint model charges
	// for the cached translations, and foot the guest memory's modelled
	// footprint. The whole machine footprint is left out: under Taskgrind
	// it includes the model's fixed charge per translation, which counts
	// where translation happened, and that is what the store changes.
	stmts uint64
	foot  uint64
}

// tcRun executes one drb benchmark under taskgrind with the given store
// configuration and fingerprints the outcome.
func tcRun(t *testing.T, bm drb.Benchmark, s harness.Setup) (runPrint, *harness.Instance) {
	t.Helper()
	tl := core.New(core.Options{})
	out := &bytes.Buffer{}
	s.Tool, s.Stdout, s.Seed, s.Threads = tl, out, 1, 4
	res, inst, err := harness.BuildAndRun(bm.Build(), s)
	if err != nil {
		t.Fatalf("%s: %v", bm.Name, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: run failed: %v", bm.Name, res.Err)
	}
	return fingerprint(inst, tl.Reports.String(), out.String()), inst
}

// fingerprint records a finished run's observable outcome.
func fingerprint(inst *harness.Instance, report, stdout string) runPrint {
	return runPrint{
		report: report,
		stdout: stdout,
		gmem:   inst.M.Mem.Hash(),
		state:  inst.M.StateDigest(),
		blocks: inst.M.BlocksExecuted,
		instrs: inst.M.InstrsExecuted,
		exit:   inst.M.ExitCode(),
		dirty:  inst.Core.DirtyCalls,
		acc:    inst.Core.AccessesDelivered,
		stmts:  inst.Core.CacheStmts(),
		foot:   inst.M.Mem.Footprint(),
	}
}

func diffPrints(t *testing.T, label string, cold, got runPrint) {
	t.Helper()
	if cold.report != got.report {
		t.Fatalf("%s: reports differ:\n--- cold\n%s\n--- %s\n%s", label, cold.report, label, got.report)
	}
	if cold.stdout != got.stdout {
		t.Fatalf("%s: stdout differs: %q vs %q", label, cold.stdout, got.stdout)
	}
	if cold != got {
		t.Fatalf("%s: run fingerprints differ:\ncold %+v\n%s %+v", label, cold, label, got)
	}
}

// TestStoreEquivalence: for every Table I (DataRaceBench) program, a cold
// run and the two store-served run shapes produce bit-identical results,
// and the IR oracle, given the warm store, attaches none of it.
func TestStoreEquivalence(t *testing.T) {
	benches := drb.All()
	if testing.Short() {
		benches = benches[:6]
	}
	for _, bm := range benches {
		cold, _ := tcRun(t, bm, harness.Setup{})

		// Shared-cold: a fresh store changes nothing but gets filled.
		cache := tstore.NewCache("")
		fill, fillInst := tcRun(t, bm, harness.Setup{TStore: cache})
		diffPrints(t, bm.Name+"/shared-cold", cold, fill)
		if fillInst.Core.SharedHits != 0 {
			t.Fatalf("%s: cold run adopted %d shared blocks from an empty store",
				bm.Name, fillInst.Core.SharedHits)
		}

		// Warm: same in-memory store, new core — all translations adopted.
		warm, warmInst := tcRun(t, bm, harness.Setup{TStore: cache})
		diffPrints(t, bm.Name+"/warm", cold, warm)
		if warmInst.Core.Translations != 0 {
			t.Fatalf("%s: warm run still translated %d blocks",
				bm.Name, warmInst.Core.Translations)
		}
		if warmInst.Core.SharedHits == 0 {
			t.Fatalf("%s: warm run adopted nothing", bm.Name)
		}

		ir, irInst := tcRun(t, bm, harness.Setup{TStore: cache, Engine: dbi.EngineIR})
		diffPrints(t, bm.Name+"/ir", cold, ir)
		if irInst.Core.Shared != nil || irInst.TStore != nil || irInst.Core.SharedHits != 0 {
			t.Fatalf("%s: the IR engine attached the translation store", bm.Name)
		}
	}
}

// TestStoreEquivalenceCrash: a contained crash (the wild-store fault demo)
// renders the same symbolized report — including the tg1: replay token —
// whether the faulting block was translated locally or adopted warm.
func TestStoreEquivalenceCrash(t *testing.T) {
	im, err := progs.Wildstore().Link()
	if err != nil {
		t.Fatal(err)
	}
	const token = "tg1:ChB0YXNrLmMStesttoken"
	run := func(cache *tstore.Cache) (string, *harness.Instance) {
		inst, err := harness.New(harness.Setup{
			Image: im, Tool: core.New(core.Options{}), Seed: 1, Threads: 4,
			Stdout: &bytes.Buffer{}, TStore: cache, ReplayToken: token,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := inst.Run()
		if res.Crash == nil {
			t.Fatalf("wildstore did not crash (err=%v)", res.Err)
		}
		return res.Crash.Render(inst.M.Image), inst
	}
	cache := tstore.NewCache("")
	cold, _ := run(cache)
	warm, warmInst := run(cache)
	if warmInst.Core.Translations != 0 {
		t.Fatalf("warm crash run translated %d blocks", warmInst.Core.Translations)
	}
	if cold != warm {
		t.Fatalf("crash reports differ:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
}

// TestStoreInvalidationHarness: two different programs sharing one cache
// never serve each other's translations — the image content hash keys them
// apart end to end.
func TestStoreInvalidationHarness(t *testing.T) {
	a := explore.Spec{Prog: "072-taskdep1-orig"}
	b := explore.Spec{Prog: "027-taskdependmissing-orig"}
	imA, imB := linkSpec(t, &a), linkSpec(t, &b)
	cache := tstore.NewCache("")
	harnessRun(t, imA, a, harness.Setup{TStore: cache})
	// Program B against A's cache: nothing adopted, everything fresh.
	bInst, _ := harnessRun(t, imB, b, harness.Setup{TStore: cache})
	if bInst.Core.SharedHits != 0 {
		t.Fatalf("program B adopted %d of program A's translations", bInst.Core.SharedHits)
	}
	if bInst.Core.Translations == 0 {
		t.Fatalf("program B translated nothing")
	}
	// And the cache still serves A.
	aInst, _ := harnessRun(t, imA, a, harness.Setup{TStore: cache})
	if aInst.Core.Translations != 0 {
		t.Fatalf("program A's store went cold: %d translations", aInst.Core.Translations)
	}
}

// TestStoreInvalidationToolIdentity: translation units are keyed by the
// tool's registry identity, not its display name. The taskgrind variants
// (taskgrind, taskgrind-naive) share Name() == "taskgrind" but instrument
// differently; against one shared store the second variant must translate
// everything itself, while a repeat run of the first adopts its own units.
// lockgrind, a third instrumenting identity, is isolated the same way.
func TestStoreInvalidationToolIdentity(t *testing.T) {
	sp := explore.Spec{Prog: "lock-100-mutex-counter"}
	im := linkSpec(t, &sp)
	cache := tstore.NewCache("")
	run := func(tool string) *harness.Instance {
		t.Helper()
		sp := sp
		sp.Tool = tool
		inst, _ := harnessRun(t, im, sp, harness.Setup{TStore: cache})
		return inst
	}

	if first := run("taskgrind"); first.Core.Translations == 0 {
		t.Fatal("priming run translated nothing")
	}

	// Same display name, different instrumentation: nothing adopted.
	naive := run("taskgrind-naive")
	if naive.Core.SharedHits != 0 {
		t.Fatalf("taskgrind-naive adopted %d of taskgrind's units", naive.Core.SharedHits)
	}
	if naive.Core.Translations == 0 {
		t.Fatal("taskgrind-naive translated nothing")
	}

	// Third identity: lockgrind also starts cold on the same store.
	if lg := run("lockgrind"); lg.Core.SharedHits != 0 {
		t.Fatalf("lockgrind adopted %d units from other tools", lg.Core.SharedHits)
	}

	// And each identity's own units stay warm.
	for _, tool := range []string{"taskgrind", "taskgrind-naive", "lockgrind"} {
		if again := run(tool); again.Core.Translations != 0 {
			t.Fatalf("repeat %s run went cold: %d translations", tool, again.Core.Translations)
		}
	}
}

// TestStoreConcurrentWorkers: 16 workers run the same program against one
// shared store concurrently (exercised under -race by make check); every
// outcome matches the cold run's digest and the store performs roughly one
// run's worth of translation work. A second arm runs the same workers
// against a store capped at the bytes of a quarter of the image's units:
// eviction may make them translate again, but never changes what they
// compute.
func TestStoreConcurrentWorkers(t *testing.T) {
	sp := explore.Spec{Prog: "072-taskdep1-orig"}
	im := linkSpec(t, &sp)
	coldInst, cold := harnessRun(t, im, sp, harness.Setup{})
	solo := coldInst.Core.Translations

	runWorkers := func(label string, cache *tstore.Cache) {
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, d, err := digestRun(im, sp, harness.Setup{TStore: cache}); err != nil || d != cold {
					t.Errorf("%s %d: %v: digest differs from the cold run's:\ncold %+v\ngot  %+v", label, w, err, cold, d)
				}
			}()
		}
		wg.Wait()
	}

	cache := tstore.NewCache("")
	runWorkers("worker", cache)
	stats := cache.Stats()
	// First-writer-wins means a block can be translated by several racing
	// workers, but the store only ever keeps (and counts) one; the total
	// store growth is exactly one image's worth.
	if stats.Puts > solo {
		t.Fatalf("store grew by %d units, one run translates %d", stats.Puts, solo)
	}
	if stats.Hits == 0 {
		t.Fatalf("no worker adopted anything")
	}

	if stats.Evictions != 0 || stats.Units == 0 || stats.Bytes <= 0 {
		t.Fatalf("uncapped store: %+v", stats)
	}
	maxBytes := stats.Bytes / int64(stats.Units) * int64(solo/4)
	capped := tstore.NewCacheOpts(tstore.Options{MaxBytes: maxBytes})
	runWorkers("capped worker", capped)
	if cs := capped.Stats(); cs.Evictions == 0 || cs.Bytes > maxBytes {
		t.Fatalf("store capped at %d bytes: %+v", maxBytes, cs)
	}
}

// TestSweepAmortization: a 100-seed explore sweep over one program performs
// about one image's worth of translation work in total — the marginal
// translation cost of an extra seed is near zero.
func TestSweepAmortization(t *testing.T) {
	bm, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	sp := explore.Spec{Prog: bm.Name}
	coldInst, _ := harnessRun(t, linkSpec(t, &sp), sp, harness.Setup{})
	solo := coldInst.Core.Translations

	cache := tstore.NewCache("")
	out, err := explore.RunOpts(bm.Build,
		explore.Spec{Tool: "taskgrind", Threads: 4}, 100,
		explore.Opts{Workers: 8, TStore: cache})
	if err != nil {
		t.Fatal(err)
	}
	if out.Seeds != 100 {
		t.Fatalf("sweep ran %d seeds", out.Seeds)
	}
	stats := cache.Stats()
	// Different seeds schedule differently and can reach slightly different
	// code; allow modest slack over the single-run block count.
	if limit := solo + solo/3; stats.Puts > limit {
		t.Fatalf("100-seed sweep translated %d blocks; one run translates %d (limit %d)",
			stats.Puts, solo, limit)
	}
	if stats.Hits < 50*uint64(solo) {
		t.Fatalf("sweep adopted only %d blocks across 100 seeds (solo=%d)", stats.Hits, solo)
	}
}
