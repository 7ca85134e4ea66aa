package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gbuild"
	"repro/internal/lulesh"
	"repro/internal/obs/store"
	"repro/internal/progs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestQueryGolden is an acceptance criterion: a recorded run's query output
// is byte-stable for a given (program, seed). The CLI runs compiled code,
// the only engine it offers.
func TestQueryGolden(t *testing.T) {
	bin := buildCLI(t)
	t.Run("compiled", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "runs")
		out, code := runCLI(t, bin, "-prog", "task.c", "-tool", "taskgrind", "-seed", "1", "-record", dir)
		if code != 1 { // task.c has one deliberate race
			t.Fatalf("record run exit %d, want 1\n%s", code, out)
		}
		for _, q := range [][]string{
			{"top", "-by", "span"},
			{"races"},
			{"spans", "-kind", "task"},
			{"gantt", "-run", "1"},
		} {
			got, code := runCLI(t, bin, append([]string{"query", q[0], "-store", dir}, q[1:]...)...)
			if code != 0 {
				t.Fatalf("query %s exit %d\n%s", q[0], code, got)
			}
			checkGolden(t, "query_"+q[0], got)
		}
	})
}

// TestQueryCLISmoke exercises the remaining verbs and flags end-to-end.
func TestQueryCLISmoke(t *testing.T) {
	bin := buildCLI(t)
	dir := filepath.Join(t.TempDir(), "runs")
	if out, code := runCLI(t, bin, "-prog", "task.c", "-record", dir); code != 1 {
		t.Fatalf("record exit %d\n%s", code, out)
	}
	agg, code := runCLI(t, bin, "query", "agg", "-store", dir)
	if code != 0 {
		t.Fatalf("query agg exit %d\n%s", code, agg)
	}
	for _, want := range []string{"runs: 1", "verdicts: ok=1", "taskgrind: 1 report(s) across 1 schedules (stable)"} {
		if !strings.Contains(agg, want) {
			t.Errorf("query agg missing %q:\n%s", want, agg)
		}
	}
	ins, code := runCLI(t, bin, "query", "instants", "-store", dir, "-kind", "omp", "-sym", "steal")
	if code != 0 {
		t.Fatalf("query instants exit %d\n%s", code, ins)
	}
	gantt, code := runCLI(t, bin, "query", "gantt", "-store", dir, "-run", "1", "-width", "60")
	if code != 0 || !strings.Contains(gantt, "thr 0") {
		t.Fatalf("query gantt exit %d\n%s", code, gantt)
	}
}

// TestTraceMatchesQueryGantt: -trace renders the run's task schedule from
// its recorded spans, so on a -record run it prints exactly what `query
// gantt` prints for that run — and it shows both of Listing 4's tasks.
func TestTraceMatchesQueryGantt(t *testing.T) {
	bin := buildCLI(t)
	dir := filepath.Join(t.TempDir(), "runs")
	out, code := runCLI(t, bin, "-prog", "task.c", "-seed", "1", "-record", dir, "-trace")
	if code != 1 {
		t.Fatalf("record+trace exit %d, want 1\n%s", code, out)
	}
	gantt, code := runCLI(t, bin, "query", "gantt", "-store", dir, "-run", "1")
	if code != 0 {
		t.Fatalf("query gantt exit %d\n%s", code, gantt)
	}
	if !strings.Contains(out, "== task schedule (block time) ==\n"+gantt) {
		t.Fatalf("-trace chart differs from query gantt:\n--- -trace run\n%s--- query gantt\n%s", out, gantt)
	}
	for _, task := range []string{"task_a", "task_b"} {
		if !strings.Contains(gantt, task) {
			t.Errorf("gantt lacks explicit task %s:\n%s", task, gantt)
		}
	}
}

// TestExploreRecordAggBitIdentical is the cross-seed acceptance criterion: a
// 100-seed sweep recorded into a single store, re-aggregated via the reader,
// reproduces the in-process outcome bit-identically — verdict matrix,
// taxonomy and summary line.
func TestExploreRecordAggBitIdentical(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(prog string) func() *gbuild.Builder {
		return func() *gbuild.Builder {
			b, err := progs.Build(prog, lulesh.Params{})
			if err != nil {
				t.Error(err)
			}
			return b
		}
	}
	spec := func(prog string, threads int) explore.Spec {
		return explore.Spec{Prog: prog, Tool: "taskgrind", Threads: threads}
	}

	// Sweep 1: 100 clean seeds of the Listing-4 microbenchmark.
	okOut, err := explore.RunOpts(mk("task.c"), spec("task.c", 4), 100,
		explore.Opts{Workers: 8, Record: w})
	if err != nil {
		t.Fatal(err)
	}
	// Sweep 2: a crashing guest — every seed quarantined, still recorded.
	badOut, err := explore.RunOpts(mk("wildstore"), spec("wildstore", 2), 6,
		explore.Opts{Workers: 4, Record: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, runs := w.Stats()
	if runs != 106 {
		t.Fatalf("recorded runs = %d, want 106", runs)
	}

	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for prog, want := range map[string]explore.Outcome{"task.c": okOut, "wildstore": badOut} {
		headers, err := r.Runs(store.Q{Prog: prog})
		if err != nil {
			t.Fatal(err)
		}
		got := explore.Rebuild("taskgrind", headers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rebuilt outcome differs\n got: %+v\nwant: %+v", prog, got, want)
		}
		if got.String() != want.String() {
			t.Errorf("%s: summary line differs\n got: %s\nwant: %s", prog, got.String(), want.String())
		}
	}

	// Quarantined crashes carry their replay tokens and taxonomy.
	bad, err := r.Runs(store.Q{Prog: "wildstore"})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 6 {
		t.Fatalf("wildstore runs = %d, want 6", len(bad))
	}
	for _, h := range bad {
		if h.Verdict == store.VerdictOK {
			t.Fatalf("wildstore seed %d recorded as ok", h.Seed)
		}
		want := spec("wildstore", 2)
		want.Seed = h.Seed
		if h.ReplayToken != want.Token() {
			t.Fatalf("seed %d replay token = %q", h.Seed, h.ReplayToken)
		}
		if h.Err == "" {
			t.Fatalf("seed %d quarantined without an error", h.Seed)
		}
	}

	// Work stats: every clean run did deterministic guest work.
	okRuns, err := r.Runs(store.Q{Prog: "task.c", Verdict: store.VerdictOK})
	if err != nil {
		t.Fatal(err)
	}
	agg := store.Aggregate(okRuns)
	if agg.Runs != 100 || agg.InstrsMin == 0 {
		t.Fatalf("aggregate over clean sweep: %+v", agg)
	}
}
