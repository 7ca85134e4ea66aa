package harness_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// taskFactory builds a SetupFactory over a linked image: every attempt gets
// a fresh tool and a fresh injector (both are stateful), with identical
// configuration — the supervisor's determinism contract.
func taskFactory(im *guest.Image, inject func() *faultinject.Injector) harness.SetupFactory {
	return func() harness.Setup {
		s := harness.Setup{
			Image: im, Tool: core.New(core.Options{}), Seed: 2, Threads: 4,
			RunOpts: vm.RunOpts{MaxBlocks: 2_000_000},
		}
		if inject != nil {
			s.Inject = inject()
		}
		return s
	}
}

func linkOrFatal(t *testing.T, seed int64) *guest.Image {
	t.Helper()
	im, err := randTaskProgram(seed).Link()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestSupervisorCleanRunPassesThrough(t *testing.T) {
	im := linkOrFatal(t, 11)
	sup, err := harness.Supervise(nil, taskFactory(im, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sup.Err != nil || sup.Attempts != 1 || sup.Taxonomy != "" || sup.FellBack {
		t.Fatalf("clean run: %+v err=%v", sup, sup.Err)
	}
	if sup.Marks == 0 {
		t.Fatal("no state marks recorded")
	}
}

// TestSupervisorFallbackMatchesUninjectedReport is the acceptance criterion:
// an injected compiled-engine panic kills an unsupervised run, while the
// supervisor completes it under the IR oracle with a tool report
// bit-identical to an uninjected run's.
func TestSupervisorFallbackMatchesUninjectedReport(t *testing.T) {
	im := linkOrFatal(t, 11)

	// Uninjected baseline.
	base, err := harness.Supervise(nil, taskFactory(im, nil))
	if err != nil {
		t.Fatal(err)
	}
	if base.Err != nil {
		t.Fatalf("baseline failed: %v", base.Err)
	}
	baseReport := base.Inst.Core.Tool().(*core.Taskgrind).Reports.String()

	// The run dispatches a couple hundred blocks; a period of 40 guarantees
	// the injected defect fires mid-run regardless of the seed-derived phase.
	inject := func() *faultinject.Injector {
		in := faultinject.New(7)
		in.Enable(faultinject.EnginePanic, 40)
		return in
	}

	// Unsupervised, the injected engine defect kills the run.
	dead, err := harness.New(taskFactory(im, inject)())
	if err != nil {
		t.Fatal(err)
	}
	if res := dead.Run(); harness.Classify(res.Err) != harness.TaxPanic || res.Crash == nil {
		t.Fatalf("unsupervised: taxonomy=%q crash=%v", harness.Classify(res.Err), res.Crash)
	}

	// Supervised, the crash replays and the IR oracle completes the run.
	sup, err := harness.Supervise(nil, taskFactory(im, inject))
	if err != nil {
		t.Fatal(err)
	}
	if !sup.Reproduced || sup.Attempts != 3 {
		t.Fatalf("panic not replay-verified before the fallback: reproduced=%v attempts=%d",
			sup.Reproduced, sup.Attempts)
	}
	if sup.Window[1] < sup.Window[0] {
		t.Fatalf("bad failure window %v", sup.Window)
	}
	if !sup.FellBack || sup.Err != nil {
		t.Fatalf("fallback did not complete: fellback=%v err=%v", sup.FellBack, sup.Err)
	}
	if sup.Taxonomy != harness.TaxPanic {
		t.Fatalf("taxonomy = %q, want %q (why it fell back)", sup.Taxonomy, harness.TaxPanic)
	}
	got := sup.Inst.Core.Tool().(*core.Taskgrind).Reports.String()
	if got != baseReport {
		t.Fatalf("fallback report differs from uninjected run:\n--- fallback\n%s\n--- baseline\n%s", got, baseReport)
	}
	if sup.ExitCode != base.ExitCode || sup.GuestInstrs != base.GuestInstrs {
		t.Fatalf("fallback exit/instrs %d/%d, baseline %d/%d",
			sup.ExitCode, sup.GuestInstrs, base.ExitCode, base.GuestInstrs)
	}
}

// TestSupervisorVerifyCrashReproduces: a real guest crash must reproduce
// bit-identically under journal-verified replay, and the rendered report
// carries the replay token.
func TestSupervisorVerifyCrashReproduces(t *testing.T) {
	im, err := wildStoreProgram().Link()
	if err != nil {
		t.Fatal(err)
	}
	token := explore.Spec{Prog: "wildstore", Tool: "taskgrind", Seed: 1, Threads: 2}.Token()
	factory := func() harness.Setup {
		return harness.Setup{Image: im, Tool: core.New(core.Options{}), Seed: 1, Threads: 2,
			ReplayToken: token}
	}
	sup, err := harness.Supervise(nil, factory)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Taxonomy != harness.TaxFault || sup.Crash == nil {
		t.Fatalf("taxonomy=%q crash=%v", sup.Taxonomy, sup.Crash)
	}
	if !sup.Reproduced {
		t.Fatal("crash did not reproduce under verified replay")
	}
	if sup.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", sup.Attempts)
	}
	text := sup.Crash.Render(sup.Inst.M.Image)
	if !strings.Contains(text, "replay: "+token) {
		t.Fatalf("report missing replay token:\n%s", text)
	}
}

// TestSupervisedReplayDetectsForeignSchedule: verifying a journal against a
// run with a different seed reports a divergence instead of silently
// accepting it.
func TestSupervisedReplayDetectsForeignSchedule(t *testing.T) {
	im := linkOrFatal(t, 11)
	rec := snapshot.NewJournal()
	s := harness.Setup{Image: im, Tool: core.New(core.Options{}), Seed: 2, Threads: 4, Journal: rec}
	inst, err := harness.New(s)
	if err != nil {
		t.Fatal(err)
	}
	if res := inst.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}

	v := rec.Verifier(false)
	s2 := s
	s2.Seed = 3
	s2.Tool = core.New(core.Options{})
	s2.Journal = v
	inst2, err := harness.New(s2)
	if err != nil {
		t.Fatal(err)
	}
	res := inst2.Run()
	if harness.Classify(res.Err) != harness.TaxDivergence {
		t.Fatalf("foreign schedule not flagged: %v", res.Err)
	}
}
