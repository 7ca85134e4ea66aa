package explore_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/obs/store"
	"repro/internal/omp"
	"repro/internal/ompt"
)

func racyLulesh() *gbuild.Builder {
	b, err := lulesh.Build(lulesh.Params{S: 6, TEL: 4, TNL: 4, Iters: 2, Racy: true})
	if err != nil {
		panic(err)
	}
	return b
}

// TestTaskgrindScheduleIndependent: the post-mortem segment analysis finds
// the same count under every schedule — the property that distinguishes it
// from online detectors in Table II.
func TestTaskgrindScheduleIndependent(t *testing.T) {
	out, err := explore.Run(racyLulesh, "taskgrind", 4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stable() {
		t.Fatalf("taskgrind counts vary: %v", out.Counts)
	}
	if out.Min == 0 {
		t.Fatal("taskgrind found nothing on racy LULESH")
	}
	if !strings.Contains(out.String(), "stable") {
		t.Errorf("summary: %s", out)
	}
}

// TestArcherScheduleSensitive: the online vector-clock detector's counts
// depend on which interleaving ran — the "149 to 273" phenomenon.
func TestArcherScheduleSensitive(t *testing.T) {
	// A program with many racing task pairs gives Archer room to vary:
	// which pairs actually collide depends on stealing.
	build := func() *gbuild.Builder {
		b := omp.NewProgram()
		b.Global("g", 8*4)
		for i, name := range []string{"wa", "wb", "wc", "wd"} {
			f := b.Func(name, "var.c")
			f.Line(5 + i)
			for j := int32(0); j < 4; j++ {
				f.LoadSym(1, "g")
				f.Ld(8, 2, 1, j*8)
				f.Addi(2, 2, 1)
				f.St(8, 1, j*8, 2)
			}
			f.Ret()
		}
		f := b.Func("micro", "var.c")
		f.Enter(0)
		fn := f
		omp.SingleNowait(f, func() {
			for _, name := range []string{"wa", "wb", "wc", "wd"} {
				omp.EmitTask(fn, omp.TaskOpts{Fn: name})
			}
			omp.Taskwait(fn)
		})
		f.Leave()
		f = b.Func("main", "var.c")
		f.Enter(0)
		f.Ldi(1, 0)
		omp.Parallel(f, "micro", 1, 4)
		f.Ldi(0, 0)
		f.Hlt(0)
		_ = ompt.DepIn
		return b
	}
	out, err := explore.Run(build, "archer", 4, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Max == 0 {
		t.Fatal("archer never detected anything")
	}
	if out.Stable() {
		t.Logf("archer unexpectedly stable at %d (acceptable but unusual): %v", out.Min, out.Counts)
	}
}

// TestParallelWorkersMatchSerial: concurrency in the harness must not
// change results.
func TestParallelWorkersMatchSerial(t *testing.T) {
	par, err := explore.Run(racyLulesh, "taskgrind", 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := explore.Run(racyLulesh, "taskgrind", 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par.Counts {
		if par.Counts[i] != ser.Counts[i] {
			t.Fatalf("worker parallelism changed results: %v vs %v", par.Counts, ser.Counts)
		}
	}
}

// TestBadToolPropagates.
func TestBadToolPropagates(t *testing.T) {
	if _, err := explore.Run(racyLulesh, "nonesuch", 4, 2, 2); err == nil {
		t.Fatal("unknown tool accepted")
	}
	supervised := explore.Spec{Tool: "nonesuch", Threads: 4, Supervised: true}
	if _, err := explore.RunOpts(racyLulesh, supervised, 2, explore.Opts{Workers: 2}); err == nil {
		t.Fatal("unknown tool accepted by supervised sweep")
	}
}

// crasherProgram races an "init" task that publishes a valid pointer against
// a "deref" task that stores through it: schedules where the thief runs
// deref before init's store take a wild store through NULL. Whether a given
// seed crashes depends purely on the task pickup order.
func crasherProgram() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("g", 16) // g[0]: pointer slot (zero-init), g[8]: valid target
	f := b.Func("init", "crash.c")
	f.Line(5)
	// Filler work widens the racing window before the publishing store.
	for j := 0; j < 3; j++ {
		f.LoadSym(1, "g")
		f.Ld(8, 2, 1, 8)
		f.Addi(2, 2, 1)
		f.St(8, 1, 8, 2)
	}
	f.LoadSym(1, "g")
	f.Addi(2, 1, 8)
	f.St(8, 1, 0, 2) // g[0] = &g[8]
	f.Ret()
	f = b.Func("deref", "crash.c")
	f.Line(12)
	f.LoadSym(1, "g")
	f.Ld(8, 2, 1, 0) // r2 = g[0]
	f.Ldi(3, 7)
	f.St(8, 2, 0, 3) // *r2 = 7 — wild when init has not published yet
	f.Ret()
	f = b.Func("micro", "crash.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		omp.EmitTask(fn, omp.TaskOpts{Fn: "init"})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "deref"})
		omp.Taskwait(fn)
	})
	f.Leave()
	f = b.Func("main", "crash.c")
	f.Enter(0)
	f.Ldi(1, 0)
	omp.Parallel(f, "micro", 1, 4)
	f.Ldi(0, 0)
	f.Hlt(0)
	return b
}

// TestQuarantineKeepsSweepAlive: a schedule-dependent crasher quarantines
// its bad seeds with a taxonomy instead of aborting the sweep.
func TestQuarantineKeepsSweepAlive(t *testing.T) {
	out, err := explore.Run(crasherProgram, "taskgrind", 4, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) == 0 {
		t.Fatal("no seed crashed: the crasher is not racing")
	}
	if len(out.Failed) == out.Seeds {
		t.Fatalf("every seed crashed: not schedule-dependent (%v)", out.Failed)
	}
	if len(out.Failed) != len(out.Failures) {
		t.Fatalf("Failed/Failures out of sync: %v vs %v", out.Failed, out.Failures)
	}
	for _, f := range out.Failures {
		if f.Kind != harness.TaxFault {
			t.Errorf("seed %d: taxonomy %q, want %q (%s)", f.Seed, f.Kind, harness.TaxFault, f.Err)
		}
	}
	if !strings.Contains(out.String(), "quarantined") {
		t.Errorf("summary omits quarantine: %s", out)
	}
}

// TestSupervisedSweepVerifiesCrashes: in a supervised sweep every
// quarantined crash must have reproduced bit-identically before being
// reported, and the surviving seeds must agree with the plain sweep.
func TestSupervisedSweepVerifiesCrashes(t *testing.T) {
	sup, err := explore.RunOpts(crasherProgram,
		explore.Spec{Tool: "taskgrind", Threads: 4, Supervised: true}, 8, explore.Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sup.Failed) == 0 || len(sup.Failed) == sup.Seeds {
		t.Fatalf("want a mix of crashing and surviving seeds, got failed=%v", sup.Failed)
	}
	for _, f := range sup.Failures {
		if f.Kind != harness.TaxFault {
			t.Errorf("seed %d: taxonomy %q, want %q", f.Seed, f.Kind, harness.TaxFault)
		}
		if !f.Reproduced {
			t.Errorf("seed %d: crash did not reproduce under verified replay", f.Seed)
		}
	}
	plain, err := explore.Run(crasherProgram, "taskgrind", 4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Failed) != len(sup.Failed) {
		t.Fatalf("supervision changed which seeds fail: %v vs %v", sup.Failed, plain.Failed)
	}
	for i := range plain.Failed {
		if plain.Failed[i] != sup.Failed[i] {
			t.Fatalf("supervision changed which seeds fail: %v vs %v", sup.Failed, plain.Failed)
		}
	}
	for i := range plain.Counts {
		if plain.Counts[i] != sup.Counts[i] {
			t.Fatalf("supervision changed surviving counts: %v vs %v", sup.Counts, plain.Counts)
		}
	}
}

// TestAggregateSeedsThatRan: an Outcome covers only the seeds that have a
// result (a store may hold a daemon job for seed 2 alone), a later
// duplicate of a seed wins, and a quarantined seed counts zero reports.
func TestAggregateSeedsThatRan(t *testing.T) {
	ok := func(seed, reports int) explore.SeedResult {
		return explore.SeedResult{Seed: seed, Verdict: store.VerdictOK, Reports: reports}
	}
	fault := explore.SeedResult{Seed: 2, Verdict: harness.TaxFault, Err: "wild store"}
	for _, tc := range []struct {
		name string
		in   []explore.SeedResult
		want explore.Outcome
	}{
		{"seed 2", []explore.SeedResult{ok(2, 1)}, explore.Outcome{
			Tool: "taskgrind", Seeds: 1, Counts: []int{1},
			Min: 1, Max: 1, Distinct: 1, DetectionRate: 1,
		}},
		{"seeds 2 and 5", []explore.SeedResult{ok(5, 0), ok(2, 3)}, explore.Outcome{
			Tool: "taskgrind", Seeds: 2, Counts: []int{3, 0},
			Min: 0, Max: 3, Distinct: 2, DetectionRate: 0.5,
		}},
		{"seed 2 twice", []explore.SeedResult{ok(1, 2), fault, ok(3, 2), ok(2, 4)}, explore.Outcome{
			Tool: "taskgrind", Seeds: 3, Counts: []int{2, 4, 2},
			Min: 2, Max: 4, Distinct: 2, DetectionRate: 1,
		}},
		{"seed 2 twice, failing last", []explore.SeedResult{ok(1, 2), ok(2, 4), ok(3, 2), fault}, explore.Outcome{
			Tool: "taskgrind", Seeds: 3, Counts: []int{2, 0, 2},
			Failed:   []int{2},
			Failures: []explore.Failure{{Seed: 2, Kind: harness.TaxFault, Err: "wild store"}},
			Min:      2, Max: 2, Distinct: 1, DetectionRate: 1,
		}},
	} {
		// fields prints every field, where %v would call Outcome.String.
		type fields explore.Outcome
		if got := explore.Aggregate("taskgrind", tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, fields(got), fields(tc.want))
		}
	}
}
