package repro

// Recording-overhead benchmark: the cost of recording a run into the
// columnar store (internal/obs/store) relative to the in-memory ring sink
// it replaces as the default trace destination. Both arms run the same
// Taskgrind LULESH workload as BenchmarkObservability with the full obs
// stack attached; the only difference is where trace events land. `make
// bench-rec` writes the comparison to the "recording" section of
// BENCH_perf.json; TestRecordingOverheadRegression guards the < 2x
// acceptance bound.

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/obs"
	"repro/internal/obs/store"
)

// recArm is one trace-sink configuration under measurement.
type recArm struct {
	Name string `json:"name"`

	Runs        int     `json:"runs"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
	Instrs      uint64  `json:"instrs"`

	// Store-only accounting.
	DroppedEvents  uint64  `json:"dropped_events,omitempty"`
	StoreBytes     int64   `json:"store_bytes,omitempty"`
	OverheadVsRing float64 `json:"overhead_vs_ring,omitempty"`
}

// runRecordingArm executes the benchmark workload once with the given trace
// sink attached and returns the run's wall seconds plus event/instr counts.
func runRecordingArm(tb testing.TB, sink obs.Sink) (wall float64, events, instrs uint64) {
	tb.Helper()
	p := lulesh.Params{S: 8, TEL: 4, TNL: 4, Iters: 2}
	bb, err := lulesh.Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	tg := core.New(core.DefaultOptions())
	reg := obs.NewRegistry()
	tr := obs.NewTracer(sink)
	prof := obs.NewProfiler(64)
	res, inst, err := harness.BuildAndRun(bb, harness.Setup{
		Tool: tg, Seed: 1, Threads: 4, Slice: 1000,
		Obs: &obs.Hooks{Metrics: reg, Tracer: tr, Prof: prof},
	})
	if err != nil || res.Err != nil {
		tb.Fatal(err, res.Err)
	}
	if err := tr.Close(); err != nil {
		tb.Fatal(err)
	}
	return res.Wall.Seconds(), tr.Events(), inst.M.InstrsExecuted
}

// storeDirSize sums the segment sizes of a store directory.
func storeDirSize(tb testing.TB, dir string) int64 {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// BenchmarkRecording compares the ring sink against the columnar store sink
// on the observability workload. The "recording" section of BENCH_perf.json
// records the overhead ratio the < 2x acceptance criterion is stated
// against.
func BenchmarkRecording(b *testing.B) {
	arms := []*recArm{{Name: "ring"}, {Name: "store"}}
	done := 0
	for _, arm := range arms {
		arm := arm
		b.Run(arm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sink obs.Sink
				var w *store.Writer
				var rw *store.RunWriter
				dir := b.TempDir()
				if arm.Name == "ring" {
					sink = obs.NewRingSink(1 << 16)
				} else {
					var err error
					w, err = store.Create(dir)
					if err != nil {
						b.Fatal(err)
					}
					rw = w.Begin(store.RunHeader{
						Prog: "lulesh", Tool: "taskgrind", Seed: 1, Threads: 4,
					})
					sink = store.NewStoreSink(rw)
				}
				wall, events, instrs := runRecordingArm(b, sink)
				arm.Runs++
				arm.WallSeconds += wall
				arm.Events += events
				arm.Instrs += instrs
				if rw != nil {
					if err := rw.Finish(); err != nil {
						b.Fatal(err)
					}
					dropped, _ := w.Stats()
					arm.DroppedEvents += dropped
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
					arm.StoreBytes += storeDirSize(b, dir)
				}
			}
			b.ReportMetric(arm.WallSeconds/float64(arm.Runs), "wall-sec/run")
			b.ReportMetric(float64(arm.Events)/float64(arm.Runs), "events/run")
			done++
		})
	}
	if done < len(arms) {
		return // partial -bench filter: nothing comparable to record
	}
	ring, st := arms[0], arms[1]
	st.OverheadVsRing = (st.WallSeconds / float64(st.Runs)) /
		(ring.WallSeconds / float64(ring.Runs))
	writePerfSection(b, "recording", struct {
		Suite     string    `json:"suite"`
		Tool      string    `json:"tool"`
		Threads   int       `json:"threads"`
		Seed      uint64    `json:"seed"`
		Criterion string    `json:"criterion"`
		Timestamp string    `json:"timestamp"`
		Arms      []*recArm `json:"arms"`
	}{
		Suite: "lulesh-s8", Tool: "taskgrind", Threads: 4, Seed: 1,
		Criterion: "overhead_vs_ring is the per-run wall-clock ratio of " +
			"tracing into the columnar run store (column appends, one encode " +
			"per run + segment append) against the in-memory ring sink; the " +
			"acceptance bound is < 2x.",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Arms:      arms,
	})
}

// TestRecordingOverheadRegression is the recording half of the PERF_GUARD
// gate: it re-measures the store-vs-ring wall-clock ratio (best of three
// fresh runs per arm, so machine noise cannot fail it) and fails if
// recording costs 2x or more — the kind of blowup a per-event allocation or
// a per-event encode on the trace fast path would cause.
func TestRecordingOverheadRegression(t *testing.T) {
	if os.Getenv("PERF_GUARD") != "1" {
		t.Skip("set PERF_GUARD=1 to run the recording-overhead regression gate")
	}
	best := func(runOnce func() float64) float64 {
		b := runOnce()
		for i := 0; i < 2; i++ {
			if w := runOnce(); w < b {
				b = w
			}
		}
		return b
	}
	ringWall := best(func() float64 {
		wall, _, _ := runRecordingArm(t, obs.NewRingSink(1<<16))
		return wall
	})
	storeWall := best(func() float64 {
		w, err := store.Create(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rw := w.Begin(store.RunHeader{Prog: "lulesh", Tool: "taskgrind", Seed: 1, Threads: 4})
		wall, _, _ := runRecordingArm(t, store.NewStoreSink(rw))
		if err := rw.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return wall
	})
	ratio := storeWall / ringWall
	t.Logf("recording overhead: store %.3fs / ring %.3fs = %.2fx", storeWall, ringWall, ratio)
	if ratio >= 2.0 {
		t.Errorf("recording overhead %.2fx >= 2x acceptance bound", ratio)
	}
	// Sanity-dump the recorded baseline if one exists, so a failure log
	// shows both the live measurement and what bench-rec last recorded.
	if data, err := os.ReadFile("BENCH_perf.json"); err == nil {
		var doc struct {
			Recording struct {
				Arms []recArm `json:"arms"`
			} `json:"recording"`
		}
		if json.Unmarshal(data, &doc) == nil {
			for _, arm := range doc.Recording.Arms {
				if arm.OverheadVsRing != 0 {
					t.Logf("recorded baseline overhead_vs_ring: %.2fx", arm.OverheadVsRing)
				}
			}
		}
	}
}
