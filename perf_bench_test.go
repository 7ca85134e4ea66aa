package repro

// Engine throughput benchmark: the measurement behind the compiled-engine
// work (pre-lowered micro-ops). Each arm runs the whole
// Table I microbenchmark suite under the nop tool and reports guest
// blocks/sec and instrs/sec; `make bench-perf`
// writes the comparison (with speedups over the IR interpreter) to
// $PERF_BENCH_OUT as BENCH_perf.json.
//
// Three throughput figures are reported per arm:
//
//   - instrs_per_sec: end-to-end, dividing by the full run wall clock. On
//     this suite that clock is dominated by translation — every program is a
//     few hundred instructions, a fresh Core per run, each block executed
//     about three times — so both engines converge toward translator speed.
//   - exec_instrs_per_sec: wall clock minus the Core's measured translate
//     and compile time. Closer to engine speed, but still carries the
//     shared runtime the suite exercises (OpenMP host calls, scheduler,
//     guest memory), which is identical across engines.
//   - hot_instrs_per_sec: after a run warms the translation caches, the
//     suite's cached compute/branch blocks are re-executed directly through
//     the engine, hot. This isolates what the compiled-engine work changes —
//     how fast an engine retires already-translated code — on the suite's
//     real translated blocks rather than a synthetic loop. The >= 2x
//     acceptance criterion is stated against this figure (speedup_vs_ir);
//     long-running guests spend their time here.
//
// Both engines execute bit-identical work in every phase (the differential
// suite proves behavioral equality), so each comparison is apples-to-apples.

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
	"repro/internal/tstore"
	"repro/internal/vex"
	"repro/internal/vm"
)

// perfArm is one engine configuration under measurement.
type perfArm struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	// Warm runs every measured pass against a translation store primed by
	// one untimed pass: the steady state of a long-lived daemon or a
	// multi-seed sweep, where translation cost is already amortized.
	Warm bool `json:"warm,omitempty"`

	Blocks           uint64  `json:"blocks"`
	Instrs           uint64  `json:"instrs"`
	WallSeconds      float64 `json:"wall_seconds"`
	TranslateSeconds float64 `json:"translate_seconds"`
	CompileSeconds   float64 `json:"compile_seconds"`
	ExecSeconds      float64 `json:"exec_seconds"`
	BlocksPerSec     float64 `json:"blocks_per_sec"`
	InstrsPerSec     float64 `json:"instrs_per_sec"`
	ExecInstrsPerSec float64 `json:"exec_instrs_per_sec"`

	HotBlocks       uint64  `json:"hot_blocks"`
	HotInstrs       uint64  `json:"hot_instrs"`
	HotWallSeconds  float64 `json:"hot_wall_seconds"`
	HotBlocksPerSec float64 `json:"hot_blocks_per_sec"`
	HotInstrsPerSec float64 `json:"hot_instrs_per_sec"`

	SpeedupVsIR     float64 `json:"speedup_vs_ir"`
	ExecSpeedupVsIR float64 `json:"exec_speedup_vs_ir"`
	E2ESpeedupVsIR  float64 `json:"e2e_speedup_vs_ir"`

	Translations  uint64  `json:"translations"`
	SharedHits    uint64  `json:"shared_hits,omitempty"`
	CacheFootKiB  float64 `json:"cache_footprint_kib"`
	SuiteRepeats  int     `json:"suite_repeats"`
	SuitePrograms int     `json:"suite_programs"`
}

// replayWindow executes natural control flow starting at the cached block
// `start`, hot: it follows the guest's real branches and jumps for up to
// maxSteps blocks, stopping as soon as the next PC leaves the replayable
// region (boring[pc/ib] false — an untranslated address, or a block whose
// exit needs VM runtime). Following real flow dispatches blocks in the
// order a long-running guest would. The guest state is whatever the warm run
// (and earlier windows) left behind; both engines evolve it identically, so
// the work compared across arms is the same. A block that faults in the
// dead state unwinds here and is removed from the region — at the same
// point in every arm. One recover scope covers the whole window, and the
// per-block region check is a slice index, so harness cost per measured
// block is negligible.
func replayWindow(m *vm.Machine, t *vm.Thread, start uint64, boring []bool, maxSteps int) (n int) {
	defer func() {
		if recover() != nil {
			if idx := t.PC / guest.InstrBytes; idx < uint64(len(boring)) {
				boring[idx] = false
			}
		}
	}()
	t.PC = start
	for n < maxSteps {
		idx := t.PC / guest.InstrBytes
		if idx >= uint64(len(boring)) || !boring[idx] {
			break
		}
		m.Eng.RunBlock(m, t)
		n++
	}
	return n
}

// hotRegions returns, per image, the blocks hotReplay replays: those a cold
// nop-tool run compiles that end in a plain jump (JKBoring — straight-line
// compute and branches). Blocks ending in host calls, calls/returns, or
// thread exits spend their time in shared VM runtime that is identical
// across engines and would only dilute the engine comparison (and replaying
// them against the dead post-exit state mutates scheduler/stack state
// unpredictably). Both engines dispatch the same blocks, so every arm
// replays these regions.
func hotRegions(tb testing.TB, images []*guest.Image) [][]uint64 {
	regions := make([][]uint64, len(images))
	for i, im := range images {
		inst, err := harness.New(harness.Setup{
			Image: im, Tool: dbi.NopTool{}, Seed: 1, Threads: 4, Stdout: io.Discard,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if res := inst.Run(); res.Err != nil {
			tb.Fatal(res.Err)
		}
		for _, a := range inst.Core.CachedBlocks() {
			if inst.Core.BlockCode(a).NextJK == vex.JKBoring {
				regions[i] = append(regions[i], a)
			}
		}
	}
	return regions
}

// hotReplay re-executes the warmed instance's translated code reps times
// over its image's hot region (hotRegions), returning blocks run,
// instructions retired, and wall time. Each sweep launches one window per
// region block, following natural control flow until it leaves the region.
// Two untimed qualification sweeps first prune blocks that fault against the
// post-exit guest state; faults during timed sweeps prune the same way.
// Engines are behaviorally identical, so every arm qualifies, prunes, and
// replays the same work.
func hotReplay(inst *harness.Instance, addrs []uint64, reps int) (blocks, instrs uint64, wall time.Duration) {
	const maxWindow = 512
	t0 := inst.M.Thread(0)
	if len(addrs) == 0 {
		return 0, 0, 0
	}
	maxAddr := addrs[len(addrs)-1]
	boring := make([]bool, maxAddr/guest.InstrBytes+1)
	for _, a := range addrs {
		boring[a/guest.InstrBytes] = true
	}
	sweep := func() (n uint64) {
		for _, a := range addrs {
			if boring[a/guest.InstrBytes] {
				n += uint64(replayWindow(inst.M, t0, a, boring, maxWindow))
			}
		}
		return n
	}
	sweep()
	sweep()
	i0 := inst.M.InstrsExecuted
	start := time.Now()
	for k := 0; k < reps; k++ {
		blocks += sweep()
	}
	wall = time.Since(start)
	return blocks, inst.M.InstrsExecuted - i0, wall
}

// BenchmarkPerfEngines measures IR-interpreter vs compiled-engine throughput
// on the Table I suite. Results accumulate across all benchmark iterations,
// so longer -benchtime runs produce tighter numbers; the wall clock covers
// guest execution only (images are pre-linked; Result.Wall excludes build
// and Fini).
func BenchmarkPerfEngines(b *testing.B) {
	benches := drb.All()
	images := make([]*guest.Image, len(benches))
	for i, bench := range benches {
		im, err := bench.Build().Link()
		if err != nil {
			b.Fatal(err)
		}
		images[i] = im
	}
	regions := hotRegions(b, images)
	const repeats = 3
	const hotReps = 400

	arms := []*perfArm{
		{Name: "ir", Engine: dbi.EngineIR},
		{Name: "compiled", Engine: dbi.EngineCompiled},
		{Name: "compiled-warm", Engine: dbi.EngineCompiled, Warm: true},
	}
	done := 0
	for _, arm := range arms {
		arm := arm
		b.Run(arm.Name, func(b *testing.B) {
			var warmCache *tstore.Cache
			if arm.Warm {
				// One untimed priming pass fills the shared store; every
				// measured run below then resolves its translations warm.
				warmCache = tstore.NewCache("")
				for _, im := range images {
					inst, err := harness.New(harness.Setup{
						Image: im, Tool: dbi.NopTool{}, Seed: 1, Threads: 4,
						Stdout: io.Discard, Engine: arm.Engine,
						TStore: warmCache,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res := inst.Run(); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			var cacheFoot uint64
			for i := 0; i < b.N; i++ {
				for r := 0; r < repeats; r++ {
					for k, im := range images {
						// Settle the heap before every guest run: these
						// runs are short enough that a settled heap never
						// re-triggers GC mid-run, so no arm's measurement
						// is taxed by assists provoked by another run's
						// translation garbage (all arms share the process
						// heap). The GC itself runs outside the measured
						// wall clock.
						runtime.GC()
						s := harness.Setup{
							Image: im, Tool: dbi.NopTool{}, Seed: 1, Threads: 4,
							Stdout: io.Discard, Engine: arm.Engine,
						}
						if arm.Warm {
							s.TStore = warmCache
						}
						inst, err := harness.New(s)
						if err != nil {
							b.Fatal(err)
						}
						res := inst.Run()
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						arm.SharedHits += inst.Core.SharedHits
						arm.Blocks += inst.M.BlocksExecuted
						arm.Instrs += inst.M.InstrsExecuted
						arm.WallSeconds += res.Wall.Seconds()
						arm.TranslateSeconds += float64(inst.Core.TranslateNanos) / 1e9
						arm.CompileSeconds += float64(inst.Core.CompileNanos) / 1e9
						arm.Translations += inst.Core.Translations
						cacheFoot += inst.Core.CacheFootprint()

						hb, hi, hw := hotReplay(inst, regions[k], hotReps)
						arm.HotBlocks += hb
						arm.HotInstrs += hi
						arm.HotWallSeconds += hw.Seconds()
					}
				}
			}
			arm.CacheFootKiB = float64(cacheFoot) / 1024
			arm.SuiteRepeats = repeats
			arm.SuitePrograms = len(images)
			arm.ExecSeconds = arm.WallSeconds - arm.TranslateSeconds - arm.CompileSeconds
			arm.BlocksPerSec = float64(arm.Blocks) / arm.WallSeconds
			arm.InstrsPerSec = float64(arm.Instrs) / arm.WallSeconds
			arm.ExecInstrsPerSec = float64(arm.Instrs) / arm.ExecSeconds
			arm.HotBlocksPerSec = float64(arm.HotBlocks) / arm.HotWallSeconds
			arm.HotInstrsPerSec = float64(arm.HotInstrs) / arm.HotWallSeconds
			b.ReportMetric(arm.InstrsPerSec, "instrs/sec")
			b.ReportMetric(arm.ExecInstrsPerSec, "exec-instrs/sec")
			b.ReportMetric(arm.HotInstrsPerSec, "hot-instrs/sec")
			done++
		})
	}
	if done < len(arms) {
		return // partial -bench filter: nothing comparable to record
	}
	ir := arms[0]
	for _, arm := range arms {
		arm.SpeedupVsIR = arm.HotInstrsPerSec / ir.HotInstrsPerSec
		arm.ExecSpeedupVsIR = arm.ExecInstrsPerSec / ir.ExecInstrsPerSec
		arm.E2ESpeedupVsIR = arm.InstrsPerSec / ir.InstrsPerSec
	}
	writePerfSection(b, "engines", struct {
		Suite     string     `json:"suite"`
		Tool      string     `json:"tool"`
		Threads   int        `json:"threads"`
		Seed      uint64     `json:"seed"`
		Criterion string     `json:"criterion"`
		Timestamp string     `json:"timestamp"`
		Arms      []*perfArm `json:"arms"`
	}{
		Suite: "table1-drb", Tool: "none(nop)", Threads: 4, Seed: 1,
		Criterion: "speedup_vs_ir compares hot_instrs_per_sec: engine " +
			"throughput re-executing the suite's cached translations. " +
			"exec_speedup_vs_ir excludes translate+compile wall time " +
			"but keeps shared runtime cost; e2e_speedup_vs_ir is raw " +
			"wall clock (translation-dominated on this suite). The " +
			"compiled-warm arm resolves translations from a primed " +
			"shared store — the daemon/sweep steady state — and must " +
			"beat ir end to end (gated by TestWarmStoreE2ERegression).",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Arms:      arms,
	})
}

// TestHotPerfRegression is the bench smoke for `make check`: gated behind
// PERF_GUARD=1, it re-measures the compiled engine's hot ns/block on the
// Table I suite and fails if it regressed more than 20% against the baseline
// recorded in BENCH_perf.json by `make bench-perf`. Three fresh measurements
// are taken and the best kept, so transient machine noise cannot fail the
// gate — only a real slowdown of the hot dispatch path can.
func TestHotPerfRegression(t *testing.T) {
	if os.Getenv("PERF_GUARD") != "1" {
		t.Skip("set PERF_GUARD=1 to run the hot-path regression gate")
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
		Engines struct {
			Arms []struct {
				Name            string  `json:"name"`
				HotBlocksPerSec float64 `json:"hot_blocks_per_sec"`
			} `json:"arms"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	var baselineNsPerBlock float64
	for _, arm := range doc.Engines.Arms {
		if arm.Name == "compiled" && arm.HotBlocksPerSec > 0 {
			baselineNsPerBlock = 1e9 / arm.HotBlocksPerSec
		}
	}
	if baselineNsPerBlock == 0 {
		t.Fatalf("no compiled-arm baseline in %s (run `make bench-perf`)", path)
	}

	benches := drb.All()
	images := make([]*guest.Image, len(benches))
	for i, bench := range benches {
		im, err := bench.Build().Link()
		if err != nil {
			t.Fatal(err)
		}
		images[i] = im
	}
	regions := hotRegions(t, images)
	const hotReps = 200
	measure := func() float64 {
		var blocks uint64
		var wall time.Duration
		for k, im := range images {
			runtime.GC()
			inst, err := harness.New(harness.Setup{
				Image: im, Tool: dbi.NopTool{}, Seed: 1, Threads: 4,
				Stdout: io.Discard, Engine: dbi.EngineCompiled,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res := inst.Run(); res.Err != nil {
				t.Fatal(res.Err)
			}
			hb, _, hw := hotReplay(inst, regions[k], hotReps)
			blocks += hb
			wall += hw
		}
		if blocks == 0 {
			t.Fatal("hot replay executed no blocks")
		}
		return float64(wall.Nanoseconds()) / float64(blocks)
	}
	best := measure()
	for i := 0; i < 2; i++ {
		if m := measure(); m < best {
			best = m
		}
	}
	const tolerance = 1.20
	t.Logf("hot compiled: %.1f ns/block fresh vs %.1f ns/block baseline (limit %.1f)",
		best, baselineNsPerBlock, baselineNsPerBlock*tolerance)
	if best > baselineNsPerBlock*tolerance {
		t.Errorf("hot compiled dispatch regressed: %.1f ns/block, baseline %.1f ns/block (+%.0f%% > 20%% budget)",
			best, baselineNsPerBlock, 100*(best/baselineNsPerBlock-1))
	}
}

// TestWarmStoreE2ERegression is the translation-store gate for `make
// check`: gated behind PERF_GUARD=1, it requires the recorded compiled-warm
// arm to beat the IR interpreter end to end (e2e_speedup_vs_ir > 1 — the
// store's reason to exist: once translation is amortized, even raw wall
// clock on this translation-dominated suite must win), then re-measures
// fresh (best of three) to prove the property still holds on this machine.
func TestWarmStoreE2ERegression(t *testing.T) {
	if os.Getenv("PERF_GUARD") != "1" {
		t.Skip("set PERF_GUARD=1 to run the warm-store e2e gate")
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
		Engines struct {
			Arms []struct {
				Name           string  `json:"name"`
				E2ESpeedupVsIR float64 `json:"e2e_speedup_vs_ir"`
			} `json:"arms"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	recorded := 0.0
	for _, arm := range doc.Engines.Arms {
		if arm.Name == "compiled-warm" {
			recorded = arm.E2ESpeedupVsIR
		}
	}
	if recorded == 0 {
		t.Fatalf("no compiled-warm arm in %s (run `make bench-perf`)", path)
	}
	if recorded <= 1 {
		t.Errorf("recorded compiled-warm e2e_speedup_vs_ir = %.3f, want > 1", recorded)
	}

	benches := drb.All()
	images := make([]*guest.Image, len(benches))
	for i, bench := range benches {
		im, err := bench.Build().Link()
		if err != nil {
			t.Fatal(err)
		}
		images[i] = im
	}
	measure := func(engine string, cache *tstore.Cache) float64 {
		var instrs uint64
		var wall time.Duration
		for _, im := range images {
			runtime.GC()
			inst, err := harness.New(harness.Setup{
				Image: im, Tool: dbi.NopTool{}, Seed: 1, Threads: 4,
				Stdout: io.Discard, Engine: engine, TStore: cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := inst.Run()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			instrs += inst.M.InstrsExecuted
			wall += res.Wall
		}
		return float64(instrs) / wall.Seconds()
	}
	cache := tstore.NewCache("")
	measure(dbi.EngineCompiled, cache) // untimed priming pass
	best := 0.0
	for i := 0; i < 3; i++ {
		ir := measure(dbi.EngineIR, nil)
		warm := measure(dbi.EngineCompiled, cache)
		if s := warm / ir; s > best {
			best = s
		}
	}
	t.Logf("warm store e2e speedup vs ir: %.2fx fresh (recorded %.2fx)", best, recorded)
	if best <= 1 {
		t.Errorf("warm compiled runs no longer beat the IR interpreter end to end: %.3fx", best)
	}
}

// perfSections are the top-level keys of $PERF_BENCH_OUT. The file is shared
// by BenchmarkPerfEngines ("engines"), BenchmarkRobustness ("robustness"),
// BenchmarkRecording ("recording"), BenchmarkServe ("serve") and
// BenchmarkLockContention ("locks"); each benchmark rewrites only its own
// section so they can be (re)recorded independently.
var perfSections = []string{"engines", "robustness", "recording", "serve", "locks"}

// writePerfSection read-modify-writes one section of $PERF_BENCH_OUT,
// preserving the other sections. A legacy flat-format file (pre-sections) is
// discarded rather than merged. No-op when PERF_BENCH_OUT is unset.
func writePerfSection(b *testing.B, key string, section any) {
	b.Helper()
	out := os.Getenv("PERF_BENCH_OUT")
	if out == "" {
		return
	}
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(out); err == nil {
		var prev map[string]json.RawMessage
		if json.Unmarshal(data, &prev) == nil {
			for _, k := range perfSections {
				if v, ok := prev[k]; ok {
					doc[k] = v
				}
			}
		}
	}
	raw, err := json.MarshalIndent(section, "  ", "  ")
	if err != nil {
		b.Fatal(err)
	}
	doc[key] = raw
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
