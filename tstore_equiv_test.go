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

import (
	"bytes"
	"math"
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
	a, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	b, ok := drb.ByName("027-taskdependmissing-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	cache := tstore.NewCache("")
	_, _ = tcRun(t, a, harness.Setup{TStore: cache})
	// Program B against A's cache: nothing adopted, everything fresh.
	_, bInst := tcRun(t, b, harness.Setup{TStore: cache})
	if bInst.Core.SharedHits != 0 {
		t.Fatalf("program B adopted %d of program A's translations", bInst.Core.SharedHits)
	}
	if bInst.Core.Translations == 0 {
		t.Fatalf("program B translated nothing")
	}
	// And the cache still serves A.
	_, aInst := tcRun(t, a, harness.Setup{TStore: cache})
	if aInst.Core.Translations != 0 {
		t.Fatalf("program A's store went cold: %d translations", aInst.Core.Translations)
	}
}

// TestStoreConcurrentWorkers: 16 workers run the same program against one
// shared store concurrently (exercised under -race by make check); every
// outcome matches the cold fingerprint and the store performs roughly one
// run's worth of translation work. A second arm runs the same workers
// against a store capped at the bytes of a quarter of the image's units:
// eviction may make them translate again, but never changes what they
// compute.
func TestStoreConcurrentWorkers(t *testing.T) {
	bm, ok := drb.ByName("072-taskdep1-orig")
	if !ok {
		t.Fatal("missing benchmark")
	}
	cold, coldInst := tcRun(t, bm, harness.Setup{})
	solo := coldInst.Core.Translations

	runWorkers := func(label string, cache *tstore.Cache) {
		const workers = 16
		prints := make([]runPrint, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				prints[w], _ = tcRun(t, bm, harness.Setup{TStore: cache})
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			diffPrints(t, label, cold, prints[w])
		}
	}

	// A byte cap no run reaches makes the cache count its units' bytes.
	cache := tstore.NewCacheOpts(tstore.Options{MaxBytes: math.MaxInt64})
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

	if stats.Evictions != 0 || stats.Units == 0 {
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
	_, coldInst := tcRun(t, bm, harness.Setup{})
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
