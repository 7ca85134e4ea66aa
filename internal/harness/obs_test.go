package harness_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/omp"
)

// taskObsProgram is a small tasking program: a parallel region spawning two
// deferred tasks, enough to exercise the translation, scheduler, task
// lifecycle and allocation metrics.
func taskObsProgram() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("data", 16)
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2

	f := b.Func("task_a", "obs.c")
	f.Line(5)
	f.LoadSym(r1, "data")
	f.Ldi(r2, 1)
	f.St(8, r1, 0, r2)
	f.Ret()

	f = b.Func("task_b", "obs.c")
	f.Line(8)
	f.LoadSym(r1, "data")
	f.Ldi(r2, 2)
	f.St(8, r1, 8, r2)
	f.Ret()

	f = b.Func("work", "obs.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		fn.Line(5)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_a"})
		fn.Line(8)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_b"})
	})
	f.Leave()

	f = b.Func("main", "obs.c")
	f.Enter(0)
	f.Ldi(r1, 0)
	omp.Parallel(f, "work", r1, 0)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}

// observedRun executes the tasking program with the full observability stack
// attached and returns the snapshot JSON, the tracer, and the ring sink.
func observedRun(t *testing.T, seed uint64) (string, *obs.Tracer, *obs.RingSink) {
	t.Helper()
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(8192)
	tr := obs.NewTracer(ring)
	prof := obs.NewProfiler(1)
	hooks := &obs.Hooks{Metrics: reg, Tracer: tr, Prof: prof}
	tg := core.New(core.DefaultOptions())
	res, inst, err := harness.BuildAndRun(taskObsProgram(), harness.Setup{
		Tool: tg, Seed: seed, Obs: hooks,
	})
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	inst.CaptureMetrics(reg)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), tr, ring
}

func TestMetricsDeterminism(t *testing.T) {
	a, trA, _ := observedRun(t, 7)
	b, trB, _ := observedRun(t, 7)
	if a != b {
		t.Fatalf("same-seed snapshots differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if trA.Events() != trB.Events() {
		t.Fatalf("same-seed event counts differ: %d vs %d", trA.Events(), trB.Events())
	}
}

func TestCapturedMetricsCoverSubsystems(t *testing.T) {
	jsonSnap, _, ring := observedRun(t, 1)
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(jsonSnap), &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	// Translation cache, scheduler, task lifecycle, allocations — the
	// counter families the acceptance criteria name.
	for _, key := range []string{
		"dbi_translations_total",
		"vm_blocks_executed_total",
		"sched_slices_total",
		"sched_switches_total",
		"omp_task_create_total",
		"omp_task_begin_total",
		"omp_task_end_total",
		"pool_allocs_total",
		"core_client_requests_total",
		"tool_accesses_recorded_total",
		"tool_instrumented_stores_total",
	} {
		if snap.Counters[key] == 0 {
			t.Errorf("counter %s missing or zero", key)
		}
	}
	if snap.Counter("omp_task_begin_total") != snap.Counter("omp_task_end_total") {
		t.Errorf("task begin/end unbalanced: %d vs %d",
			snap.Counter("omp_task_begin_total"), snap.Counter("omp_task_end_total"))
	}
	// The event stream carries every category the hooks cover.
	cats := map[string]bool{}
	for _, ev := range ring.Events() {
		cats[ev.Cat] = true
	}
	for _, c := range []string{"dbi", "sched", "omp", "core"} {
		if !cats[c] {
			t.Errorf("no %q events in trace", c)
		}
	}
}

func TestChromeTraceEndToEnd(t *testing.T) {
	var out bytes.Buffer
	tr := obs.NewTracer(obs.NewChromeSink(&out))
	prof := obs.NewProfiler(1)
	hooks := &obs.Hooks{Tracer: tr, Prof: prof}
	tg := core.New(core.DefaultOptions())
	res, inst, err := harness.BuildAndRun(taskObsProgram(), harness.Setup{
		Tool: tg, Seed: 3, Obs: hooks,
	})
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(out.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace not a valid JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	// Every B has a matching E per thread, and timestamps never go
	// backwards within a thread.
	lastTS := map[float64]float64{}
	depth := map[float64]int{}
	for _, ev := range evs {
		tid := ev["tid"].(float64)
		ts := ev["ts"].(float64)
		if ts < lastTS[tid] {
			t.Fatalf("ts went backwards on tid %v: %v < %v", tid, ts, lastTS[tid])
		}
		lastTS[tid] = ts
		switch ev["ph"] {
		case "B":
			depth[tid]++
		case "E":
			depth[tid]--
			if depth[tid] < 0 {
				t.Fatalf("unmatched E on tid %v", tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %v ends with %d open spans", tid, d)
		}
	}
	// And the profiler resolved guest symbols.
	var rep bytes.Buffer
	if err := prof.Report(&rep, inst.M.Image, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rep.Bytes(), []byte("task_a")) &&
		!bytes.Contains(rep.Bytes(), []byte("work")) {
		t.Fatalf("profile did not resolve guest symbols:\n%s", rep.String())
	}
}

func TestObsDisabledIsNilSafe(t *testing.T) {
	// No hooks: every call site must stay on its nil fast path.
	tg := core.New(core.DefaultOptions())
	res, inst, err := harness.BuildAndRun(taskObsProgram(), harness.Setup{Tool: tg, Seed: 1})
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	// CaptureMetrics with a nil registry is a no-op, not a panic.
	inst.CaptureMetrics(nil)
}
