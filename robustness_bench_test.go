package repro

// Robustness benchmark: what the replay journal costs. Each arm runs the
// Table I suite under the nop tool on the compiled engine — the same
// configuration BenchmarkPerfEngines measures — with journaling off
// (baseline) and with full decision journaling plus a state mark at two
// cadences (the ckpt-* arms). `make bench-perf` writes the comparison to the
// "robustness" section of BENCH_perf.json; TestCkptOverheadRegression guards
// the recorded overhead.

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/snapshot"
)

// robustArm is one journal configuration under measurement. MarkEvery is
// the journal's state-mark cadence and Checkpoints counts the marks; both
// keep the JSON keys of the recorded baseline.
type robustArm struct {
	Name      string `json:"name"`
	MarkEvery int    `json:"ckpt_every"`
	Journal   bool   `json:"journal"`

	Blocks           uint64  `json:"blocks"`
	WallSeconds      float64 `json:"wall_seconds"`
	Checkpoints      int     `json:"checkpoints"`
	JournalDecisions int     `json:"journal_decisions"`
	OverheadVsBase   float64 `json:"overhead_vs_baseline"`
}

// runRobustnessArm executes the suite once for one arm, accumulating into it.
func runRobustnessArm(b *testing.B, arm *robustArm, images []*guest.Image) {
	b.Helper()
	for _, im := range images {
		runtime.GC()
		var j *snapshot.Journal
		if arm.Journal {
			j = snapshot.NewJournal()
			j.MarkEvery = arm.MarkEvery
		}
		inst, err := harness.New(harness.Setup{
			Image: im, Tool: dbi.NopTool{}, Seed: 1, Threads: 4,
			Stdout: io.Discard, Engine: dbi.EngineCompiled, Journal: j,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := inst.Run()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		arm.Blocks += inst.M.BlocksExecuted
		arm.WallSeconds += res.Wall.Seconds()
		if j != nil {
			arm.Checkpoints += len(j.Marks())
			arm.JournalDecisions += j.Len()
		}
	}
}

// BenchmarkRobustness measures journal and state-mark overhead on the Table I
// suite. Like the engine benchmark, results accumulate over all iterations.
func BenchmarkRobustness(b *testing.B) {
	benches := drb.All()
	images := make([]*guest.Image, len(benches))
	for i, bench := range benches {
		im, err := bench.Build().Link()
		if err != nil {
			b.Fatal(err)
		}
		images[i] = im
	}
	const repeats = 3
	arms := []*robustArm{
		{Name: "baseline"},
		{Name: "ckpt-16", MarkEvery: 16, Journal: true},
		{Name: "ckpt-4", MarkEvery: 4, Journal: true},
	}
	done := 0
	for _, arm := range arms {
		arm := arm
		b.Run(arm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < repeats; r++ {
					runRobustnessArm(b, arm, images)
				}
			}
			b.ReportMetric(float64(arm.Blocks)/arm.WallSeconds, "blocks/sec")
			done++
		})
	}
	if done < len(arms) {
		return // partial -bench filter: nothing comparable to record
	}
	base := arms[0]
	for _, arm := range arms {
		arm.OverheadVsBase = arm.WallSeconds / base.WallSeconds
	}
	writePerfSection(b, "robustness", struct {
		Suite     string       `json:"suite"`
		Tool      string       `json:"tool"`
		Threads   int          `json:"threads"`
		Seed      uint64       `json:"seed"`
		Criterion string       `json:"criterion"`
		Timestamp string       `json:"timestamp"`
		Arms      []*robustArm `json:"arms"`
	}{
		Suite: "table1-drb", Tool: "none(nop)", Threads: 4, Seed: 1,
		Criterion: "overhead_vs_baseline is the wall-clock ratio of running " +
			"with full decision journaling and a state mark every " +
			"ckpt_every slices against the same suite with both off; " +
			"checkpoints counts the marks.",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Arms:      arms,
	})
}

// TestCkptOverheadRegression is the robustness half of the PERF_GUARD gate:
// it re-measures the ckpt-16 arm's wall-clock overhead over the baseline
// (best of three fresh measurements, so machine noise cannot fail it) and
// fails if the ratio exceeds 1.5x the overhead recorded in BENCH_perf.json
// by `make bench-perf` — the kind of blowup an accidental per-block scan in
// the journal or state-mark path would cause.
func TestCkptOverheadRegression(t *testing.T) {
	if os.Getenv("PERF_GUARD") != "1" {
		t.Skip("set PERF_GUARD=1 to run the journal-overhead regression gate")
	}
	path := os.Getenv("PERF_BENCH_OUT")
	if path == "" {
		path = "BENCH_perf.json"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no baseline (run `make bench-perf` first): %v", err)
	}
	var doc struct {
		Robustness struct {
			Arms []struct {
				Name           string  `json:"name"`
				OverheadVsBase float64 `json:"overhead_vs_baseline"`
			} `json:"arms"`
		} `json:"robustness"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	var recorded float64
	for _, arm := range doc.Robustness.Arms {
		if arm.Name == "ckpt-16" {
			recorded = arm.OverheadVsBase
		}
	}
	if recorded == 0 {
		t.Fatalf("no ckpt-16 baseline in %s (run `make bench-perf`)", path)
	}
	benches := drb.All()
	images := make([]*guest.Image, len(benches))
	for i, bench := range benches {
		im, lerr := bench.Build().Link()
		if lerr != nil {
			t.Fatal(lerr)
		}
		images[i] = im
	}
	run := func(markEvery int, journal bool) float64 {
		var wall float64
		for _, im := range images {
			runtime.GC()
			var j *snapshot.Journal
			if journal {
				j = snapshot.NewJournal()
				j.MarkEvery = markEvery
			}
			inst, nerr := harness.New(harness.Setup{
				Image: im, Tool: dbi.NopTool{}, Seed: 1, Threads: 4,
				Stdout: io.Discard, Engine: dbi.EngineCompiled, Journal: j,
			})
			if nerr != nil {
				t.Fatal(nerr)
			}
			res := inst.Run()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			wall += res.Wall.Seconds()
		}
		return wall
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		ratio := run(16, true) / run(0, false)
		if best == 0 || ratio < best {
			best = ratio
		}
	}
	limit := recorded * 1.5
	t.Logf("journal overhead: best %.3fx, recorded %.3fx, limit %.3fx", best, recorded, limit)
	if best > limit {
		t.Fatalf("journal overhead regressed: %.3fx wall vs baseline (recorded %.3fx, limit %.3fx)",
			best, recorded, limit)
	}
}
