package explore_test

// Lock-fault sweep quarantine: a supervised 100-seed sweep over the
// trylock-crash scenario with an injected trylock failure must quarantine
// every crashing seed, replay each crash bit-identically before reporting
// it (Reproduced), and stamp a replay token that reproduces the crash
// standalone.

import (
	"strings"
	"testing"

	"repro/internal/drb"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/obs/store"
)

func TestLockFaultSweepQuarantine(t *testing.T) {
	const (
		prog    = "lock-106-trylock-crash"
		tool    = "lockgrind"
		spec    = "trylock=2"
		threads = 4
		nseeds  = 100
	)
	bench, ok := drb.ByName(prog)
	if !ok {
		t.Fatalf("unknown scenario %q", prog)
	}
	dir := t.TempDir()
	w, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := explore.Spec{Prog: prog, Tool: tool, Threads: threads,
		Inject: spec, InjectSeed: 1, Supervised: true}
	out, err := explore.RunOpts(bench.Build, sp, nseeds, explore.Opts{Record: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The injector pattern is a pure function of (spec, InjectSeed) —
	// identical for every seed — so the single trylock draw fails on every
	// seed and all 100 runs hit the wild store in the fallback path.
	if len(out.Failed) != nseeds {
		t.Fatalf("quarantined %d/%d seeds, want all", len(out.Failed), nseeds)
	}
	for _, f := range out.Failures {
		if f.Kind != harness.TaxFault {
			t.Fatalf("seed %d quarantined as %q, want %q: %s", f.Seed, f.Kind, harness.TaxFault, f.Err)
		}
		if !f.Reproduced {
			t.Fatalf("seed %d crash was not replay-verified before quarantine", f.Seed)
		}
		if !strings.Contains(f.Err, "0xdead0000") {
			t.Fatalf("seed %d crashed elsewhere than the injected fallback path: %s", f.Seed, f.Err)
		}
	}

	// Standalone token reproduction: decode the token the sweep recorded
	// for one quarantined seed and re-run it from the decoded
	// configuration alone — the same crash must come back.
	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	failed := uint64(out.Failed[0])
	runs, err := r.Runs(store.Q{Seed: &failed})
	if err != nil || len(runs) != 1 {
		t.Fatalf("recorded runs of seed %d: %d, %v", out.Failed[0], len(runs), err)
	}
	cfg, err := explore.ParseToken(runs[0].ReplayToken)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := drb.ByName(cfg.Prog)
	if !ok {
		t.Fatalf("token names unknown program %q", cfg.Prog)
	}
	in, err := faultinject.ParseSpec(cfg.Inject, cfg.InjectSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := harness.BuildAndRun(b.Build(), harness.Setup{
		Seed: cfg.Seed, Threads: cfg.Threads, Inject: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "0xdead0000") {
		t.Fatalf("token replay did not reproduce the crash: %v", res.Err)
	}
}
