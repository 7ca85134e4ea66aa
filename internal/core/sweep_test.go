package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
)

// sweepLulesh are the small LULESH configurations the differential runs:
// racy with many task segments, and correct.
var sweepLulesh = []lulesh.Params{
	{S: 4, TEL: 16, TNL: 16, Iters: 2, Racy: true},
	{S: 4, TEL: 4, TNL: 4, Iters: 2},
}

// TestSweepMatchesAllPairs is the differential for Algorithm 1's sweep. On
// every built-in program (Table I, the lock suite, the paper's examples and
// small LULESH runs), under every segment-graph tool at 1 and 4 threads on
// several seeds, Fini's reports and counters equal those of the all-pairs
// loop over the same run. A naive configuration capped at MaxReports 2
// checks that the reports keeping details are the all-pairs loop's first.
func TestSweepMatchesAllPairs(t *testing.T) {
	capped := core.NaiveOptions()
	capped.MaxReports = 2
	tools := map[string]func() *core.Taskgrind{
		"naive-max2": func() *core.Taskgrind { return core.New(capped) },
	}
	for _, name := range []string{"taskgrind", "taskgrind-naive", "tasksan", "romp"} {
		tools[name] = func() *core.Taskgrind {
			tl, _, err := toolreg.Make(name)
			if err != nil {
				t.Fatal(err)
			}
			return tl.(*core.Taskgrind)
		}
	}
	seeds := []uint64{1, 2}
	var runs int
	var pairs, candidates uint64
	for _, prog := range progs.Names() {
		lps := []lulesh.Params{{}}
		if prog == "lulesh" {
			lps = sweepLulesh
		}
		for _, lp := range lps {
			for tool, mk := range tools {
				for _, threads := range []int{1, 4} {
					for _, seed := range seeds {
						b, err := progs.Build(prog, lp)
						if err != nil {
							t.Fatal(err)
						}
						tg := mk()
						res, _, err := harness.BuildAndRun(b, harness.Setup{Tool: tg, Seed: seed, Threads: threads})
						if err != nil {
							t.Fatal(err)
						}
						if res.Err != nil {
							continue // a guest fault ends the run before Fini
						}
						runs++
						where := fmt.Sprintf("%s %+v under %s, %d threads, seed %d", prog, lp, tool, threads, seed)
						want, wst := tg.AllPairsOracle()
						if got, w := core.RenderRaces(&tg.Reports), core.RenderRaces(&want); got != w {
							t.Fatalf("%s: reports differ\n--- sweep\n%s--- all pairs\n%s", where, got, w)
						}
						st := tg.Stats
						if st.ConflictPairs != wst.ConflictPairs || st.ReportsTotal != wst.ReportsTotal ||
							st.SuppressedTLS != wst.SuppressedTLS || tg.RaceCount != wst.ConflictPairs {
							t.Fatalf("%s: sweep stats %+v (races %d), all pairs %+v", where, st, tg.RaceCount, wst)
						}
						pairs += wst.PairsChecked
						candidates += st.PairsChecked
					}
				}
			}
		}
	}
	if runs == 0 || candidates >= pairs {
		t.Fatalf("%d runs: sweep checked %d pairs, all pairs %d", runs, candidates, pairs)
	}
	t.Logf("%d runs: sweep checked %d pairs, all pairs %d", runs, candidates, pairs)
}

// BenchmarkAnalysis (ablation A2) times Algorithm 1 on a racy LULESH
// recording with many small task segments: the all-pairs loop of the paper
// against the sweep Fini runs. The recording and the graph closure Fini
// built stay outside the timer; each iteration freezes the trees and runs
// one arm.
func BenchmarkAnalysis(b *testing.B) {
	p := lulesh.Params{S: 8, TEL: 16, TNL: 16, Iters: 6, Racy: true}
	record := func(b *testing.B) *core.Taskgrind {
		bb, err := lulesh.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		tg := core.New(core.DefaultOptions())
		res, _, err := harness.BuildAndRun(bb, harness.Setup{Tool: tg, Seed: 2, Threads: 4})
		if err != nil || res.Err != nil {
			b.Fatal(err, res.Err)
		}
		return tg
	}
	for _, arm := range []struct {
		name string
		run  func(*core.Taskgrind) int
	}{
		{"all-pairs", func(tg *core.Taskgrind) int { _, st := tg.AllPairsOracle(); return st.ConflictPairs }},
		{"sweep", func(tg *core.Taskgrind) int { _, st := tg.Reanalyze(); return st.ConflictPairs }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			tg := record(b)
			b.ResetTimer()
			var races int
			for i := 0; i < b.N; i++ {
				races = arm.run(tg)
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}
