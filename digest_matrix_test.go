package repro

// The run-digest matrix: a run of this system is a pure function of its
// configuration, so however a configuration is executed it must compute
// the same thing (DBI transparency). TestRunDigestMatrix holds every way
// of executing a row — the CLI path, a cold and a warm translation store,
// a journal-recording run and its verified replays on both engines, a
// recorded run, a daemon job and a supervised run — to the harness.Digest
// of the IR oracle's cold run.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/obs/store"
	"repro/internal/progs"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
)

// linkSpec normalizes sp and links its program.
func linkSpec(t *testing.T, sp *explore.Spec) *guest.Image {
	t.Helper()
	sp.Normalize()
	b, err := progs.Build(sp.Prog, sp.Lulesh())
	if err != nil {
		t.Fatal(err)
	}
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// harnessRun runs sp on im straight through harness under s (engine,
// translation store, journal), with the tool, injector, output buffer,
// budget and replay token built and the outcome rendered as
// explore.Execute does, and returns the instance and the run's digest.
func harnessRun(t *testing.T, im *guest.Image, sp explore.Spec, s harness.Setup) (*harness.Instance, harness.Digest) {
	t.Helper()
	inst, d, err := digestRun(im, sp, s)
	if err != nil {
		t.Fatalf("%s: %v", sp.Prog, err)
	}
	return inst, d
}

// digestRun is harnessRun for goroutines other than the test's own.
func digestRun(im *guest.Image, sp explore.Spec, s harness.Setup) (*harness.Instance, harness.Digest, error) {
	tl, count, err := toolreg.Make(sp.Tool)
	if err != nil {
		return nil, harness.Digest{}, err
	}
	in, err := faultinject.ParseSpec(sp.Inject, sp.InjectSeed)
	if err != nil {
		return nil, harness.Digest{}, err
	}
	out := &bytes.Buffer{}
	s.Image, s.Tool, s.Seed, s.Threads, s.Stdout, s.Inject = im, tl, sp.Seed, sp.Threads, out, in
	s.ReplayToken, s.RunOpts.MaxBlocks = sp.Token(), sp.MaxBlocks
	inst, err := harness.New(s)
	if err != nil {
		return nil, harness.Digest{}, err
	}
	res := inst.Run()
	var report, crash string
	if res.Err == nil {
		var ok bool
		if report, ok = toolreg.Render(tl); !ok {
			report = fmt.Sprintf("== %d report(s)\n", count())
		}
	}
	if res.Crash != nil {
		crash = res.Crash.Render(im)
	}
	return inst, inst.Digest(report, out.String(), crash, sp.Token()), nil
}

// matrixRow is one program under one tool. Rows marked every run each
// fault kind: the lock sites are reached only by the lock programs, and
// the heap site only by few programs, task.c among them.
type matrixRow struct {
	sp    explore.Spec
	every bool
}

func matrixRows() []matrixRow {
	var rows []matrixRow
	for _, bm := range drb.All() {
		rows = append(rows, matrixRow{sp: explore.Spec{Prog: bm.Name, Tool: "taskgrind"}})
	}
	for _, bm := range drb.LockSuite() {
		for _, tool := range []string{"lockgrind", "taskgrind"} {
			rows = append(rows, matrixRow{sp: explore.Spec{Prog: bm.Name, Tool: tool}, every: true})
		}
	}
	return append(rows,
		matrixRow{sp: explore.Spec{Prog: "task.c", Tool: "taskgrind"}, every: true},
		matrixRow{sp: explore.Spec{Prog: "task.c", Tool: "memcheck"}, every: true},
		matrixRow{sp: explore.Spec{Prog: "task.c-critical", Tool: "lockgrind"}, every: true},
		matrixRow{sp: explore.Spec{Prog: "wildstore", Tool: "taskgrind"}},
		matrixRow{sp: explore.Spec{Prog: "lulesh", Tool: "taskgrind", LSize: 4, LRacy: true}},
	)
}

// matrixCase is one executed configuration: a row at a seed under a fault
// spec (kind < 0: none), with the journal's state-mark cadence.
type matrixCase struct {
	sp    explore.Spec
	kind  faultinject.Kind
	every int
}

func (c matrixCase) String() string {
	return fmt.Sprintf("%s/%s seed=%d inject=%q iseed=%d every=%d",
		c.sp.Prog, c.sp.Tool, c.sp.Seed, c.sp.Inject, c.sp.InjectSeed, c.every)
}

// cases draws the row's configurations at seed: one fault spec (none or a
// kind), or every kind, each at a drawn period and injection seed, with a
// drawn mark cadence.
func (r matrixRow) cases(rng *rand.Rand, seed uint64) []matrixCase {
	kinds := []faultinject.Kind{-1}
	if r.every {
		kinds = faultinject.Kinds
	} else if n := rng.Intn(len(faultinject.Kinds) + 1); n > 0 {
		kinds[0] = faultinject.Kinds[n-1]
	}
	var out []matrixCase
	for _, k := range kinds {
		c := matrixCase{sp: r.sp, kind: k}
		c.sp.Seed = seed
		// The block budget turns an injection-induced livelock into a
		// timeout verdict.
		c.sp.MaxBlocks = 1_000_000
		if k >= 0 {
			c.sp.Inject = fmt.Sprintf("%s=%d", k, 1+rng.Intn(4))
			c.sp.InjectSeed = uint64(1 + rng.Intn(100))
		}
		c.every = 1 + rng.Intn(16)
		out = append(out, c)
	}
	return out
}

// matrix is the state the cases share: arm 7's store with the digest sum
// each recorded run's header must carry, and the fault kinds and verdicts
// the cases reached.
type matrix struct {
	rec      *store.Writer
	recorded map[uint64]string
	fired    map[faultinject.Kind]bool
	verdicts map[string]bool
}

// TestRunDigestMatrix: every arm reproduces the IR oracle's digest on every
// row. Rows that inject an engine panic are the exception by design: their
// unsupervised compiled arms end in verdict panic and agree with each
// other, and the supervised arm falls back to the oracle's digest.
func TestRunDigestMatrix(t *testing.T) {
	dir := t.TempDir()
	rec, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	m := &matrix{rec, map[uint64]string{}, map[faultinject.Kind]bool{}, map[string]bool{}}
	// A fixed source: the matrix is the same configurations on every run.
	// The coverage checks at the end fail if a change to the programs or
	// the scheduler leaves a fault kind or a verdict unexercised by it.
	rng := rand.New(rand.NewSource(1))
	for _, row := range matrixRows() {
		im := linkSpec(t, &row.sp)
		for _, seed := range []uint64{1, uint64(2 + rng.Intn(30))} {
			for _, c := range row.cases(rng, seed) {
				m.check(t, im, c)
			}
		}
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(store.Q{})
	if err != nil || len(runs) != len(m.recorded) {
		t.Fatalf("store holds %d runs, recorded %d (%v)", len(runs), len(m.recorded), err)
	}
	for _, h := range runs {
		if h.Digest != m.recorded[h.ID] {
			t.Errorf("recorded run %d (%s seed %d %s): header digest %s, want %s",
				h.ID, h.Prog, h.Seed, h.ReplayToken, h.Digest, m.recorded[h.ID])
		}
	}

	for _, k := range faultinject.Kinds {
		if !m.fired[k] {
			t.Errorf("no row fired %s with its decisions in the recorded journal", k)
		}
	}
	for _, v := range []string{store.VerdictOK, harness.TaxFault, harness.TaxPanic} {
		if !m.verdicts[v] {
			t.Errorf("no row ended in verdict %s", v)
		}
	}
}

// check runs every arm of one configuration against the oracle.
func (m *matrix) check(t *testing.T, im *guest.Image, c matrixCase) {
	t.Helper()
	sp := c.sp
	same := func(arm string, want, got harness.Digest) {
		t.Helper()
		if got != want {
			t.Errorf("%v: %s: digest differs\n want %+v\n got  %+v", c, arm, want, got)
		}
	}
	execute := func(arm string, sp explore.Spec, env explore.Env) explore.Execution {
		t.Helper()
		run, err := explore.Execute(nil, im, sp, env)
		if err != nil {
			t.Fatalf("%v: %s: %v", c, arm, err)
		}
		return run
	}

	oracle, want := harnessRun(t, im, sp, harness.Setup{Engine: dbi.EngineIR})
	if n := oracle.Inject.Seen(faultinject.EnginePanic); n != 0 {
		t.Errorf("%v: the IR oracle consulted the panic stream %d times", c, n)
	}

	// 1. The CLI path: no translation store.
	cli := execute("cli", sp, explore.Env{})
	m.verdicts[cli.Verdict] = true
	compiled := want
	if c.kind == faultinject.EnginePanic {
		if cli.Verdict != harness.TaxPanic {
			t.Fatalf("%v: injected engine panic ended in verdict %s", c, cli.Verdict)
		}
		compiled = cli.Digest()
	} else {
		same("cli", want, cli.Digest())
	}

	// 2, 3. Filling a fresh translation store, then warm from it.
	cache := tstore.NewCache("")
	fill := execute("fill", sp, explore.Env{TStore: cache})
	same("fill", compiled, fill.Digest())
	warm := execute("warm", sp, explore.Env{TStore: cache})
	same("warm", compiled, warm.Digest())
	if fc, wc := fill.Inst.Core, warm.Inst.Core; fc.SharedHits != 0 || wc.Translations != 0 || wc.SharedHits != fc.Translations {
		t.Errorf("%v: fill adopted %d units; warm translated %d and adopted %d of the %d filled",
			c, fc.SharedHits, wc.Translations, wc.SharedHits, fc.Translations)
	}

	// 4, 5, 6. A compiled run recording a journal, and its verified
	// replays on the compiled engine and on the IR oracle.
	j := snapshot.NewJournal()
	j.MarkEvery = c.every
	recInst, got := harnessRun(t, im, sp, harness.Setup{TStore: cache, Journal: j})
	same("journal record", compiled, got)
	if c.kind >= 0 && recInst.Inject.Fired(c.kind) > 0 && j.FireCount(int(c.kind)) > 0 {
		m.fired[c.kind] = true
	}
	for engine, exp := range map[string]harness.Digest{dbi.EngineCompiled: compiled, dbi.EngineIR: want} {
		v := j.Verifier(false)
		inst, got := harnessRun(t, im, sp, harness.Setup{Engine: engine, TStore: cache, Journal: v})
		same("journal verify "+engine, exp, got)
		if engine == dbi.EngineIR && (inst.TStore != nil || inst.Core.SharedHits != 0) {
			t.Errorf("%v: the IR oracle attached the translation store", c)
		}
		if d := v.Err(); d != nil {
			t.Errorf("%v: %s replay diverged: %v", c, engine, d)
		}
		if n, marks := v.MarksMatched(), len(j.Marks()); n != marks {
			t.Errorf("%v: %s replay matched %d of %d marks", c, engine, n, marks)
		}
	}

	// 7. A recorded run: its header must carry the digest.
	m.recorded[execute("record", sp, explore.Env{TStore: cache, Record: m.rec}).RunID] = compiled.Sum()

	// 8. A daemon job sharing the warm store.
	srv := serve.New(serve.Options{Workers: 1, TCache: cache})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	jobs, err := srv.Submit(sp)
	if err != nil {
		t.Fatalf("%v: submit: %v", c, err)
	}
	view, err := srv.Job(jobs[0].ID)
	for ; err == nil && !view.Status.Terminal(); view, err = srv.Job(jobs[0].ID) {
		time.Sleep(50 * time.Microsecond)
	}
	if err != nil || view.Result == nil {
		t.Fatalf("%v: daemon job ended %s without a result (%v)", c, view.Status, err)
	}
	if sum := compiled.Sum(); view.Result.Digest != sum {
		t.Errorf("%v: daemon job digest %s, want %s", c, view.Result.Digest, sum)
	}

	// 9. Supervised: a crash replays, an engine panic falls back to the
	// oracle, and either way the surviving attempt is the oracle's run.
	sp.Supervised = true
	sv := execute("supervised", sp, explore.Env{TStore: cache})
	same("supervised", want, sv.Digest())
	if cli.Crash != "" && !sv.Reproduced {
		t.Errorf("%v: supervised crash did not reproduce", c)
	}
	if c.kind == faultinject.EnginePanic && want.Crash == "" && (!sv.FellBack || sv.Window[0] > sv.Window[1]) {
		t.Errorf("%v: supervised panic: fell back %v, window %v", c, sv.FellBack, sv.Window)
	}
	if sv.Verdict == harness.TaxDivergence {
		t.Errorf("%v: supervised run diverged: %s", c, sv.Err)
	}
}
