package lockgrind_test

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/progs"
	"repro/internal/tools/lockgrind"
)

// TestSweepMatchesAllPairs is lockgrind's differential for the sweep in
// Fini: on every built-in program (Table I, the lock suite, the paper's
// examples and small LULESH runs) at 1 and 4 threads on several seeds, the
// races equal those of the all-pairs loop over the same run, field for
// field and in order.
func TestSweepMatchesAllPairs(t *testing.T) {
	seeds := []uint64{1, 2}
	var runs, races int
	for _, prog := range progs.Names() {
		lps := []lulesh.Params{{}}
		if prog == "lulesh" {
			lps = []lulesh.Params{
				{S: 4, TEL: 16, TNL: 16, Iters: 2, Racy: true},
				{S: 4, TEL: 4, TNL: 4, Iters: 2},
			}
		}
		for _, lp := range lps {
			for _, threads := range []int{1, 4} {
				for _, seed := range seeds {
					b, err := progs.Build(prog, lp)
					if err != nil {
						t.Fatal(err)
					}
					lg := lockgrind.New()
					res, _, err := harness.BuildAndRun(b, harness.Setup{Tool: lg, Seed: seed, Threads: threads})
					if err != nil {
						t.Fatal(err)
					}
					if res.Err != nil {
						continue // a guest fault ends the run before Fini
					}
					runs++
					races += len(lg.Races)
					if got, want := render(lg.Races), render(lg.AllPairsRaces()); got != want {
						t.Fatalf("%s %+v, %d threads, seed %d: races differ\n--- sweep\n%s--- all pairs\n%s",
							prog, lp, threads, seed, got, want)
					}
				}
			}
		}
	}
	if races == 0 {
		t.Fatalf("%d runs found no race: the differential compared nothing", runs)
	}
}

func render(races []*lockgrind.Race) string {
	s := ""
	for _, r := range races {
		s += fmt.Sprintf("%+v\n", *r)
	}
	return s
}
