package store

import (
	"testing"

	"repro/internal/obs"
)

// TestUnbalancedTaskEndCounted: an end event with no open span on its
// thread must not be dropped silently — it is counted, records no phantom
// span, and leaves the thread's span stack usable.
func TestUnbalancedTaskEndCounted(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rw := w.Begin(RunHeader{Prog: "t.c", Tool: "taskgrind"})
	sink := NewStoreSink(rw)
	task := func(phase obs.Phase, ts, id uint64) {
		sink.Write(obs.Event{TS: ts, Thread: 0, Phase: phase, Cat: "omp", Name: "task",
			Args: map[string]any{"task": id}})
	}
	task(obs.PhaseEnd, 1, 42)
	if sink.unbalanced != 1 {
		t.Fatalf("unbalanced = %d, want 1", sink.unbalanced)
	}
	// A balanced begin/end still pairs after the anomaly.
	task(obs.PhaseBegin, 2, 7)
	task(obs.PhaseEnd, 3, 7)
	if sink.unbalanced != 1 {
		t.Fatalf("unbalanced drifted to %d", sink.unbalanced)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := r.Spans(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "task#7" || spans[0].Start != 2 || spans[0].End != 3 {
		t.Fatalf("spans = %+v, want one task#7 span [2,3]", spans)
	}
}

// TestUnbalancedTaskEndMetric: the count reaches the metrics registry as
// trace_store_unbalanced_ends_total through Tracer.PublishMetrics, the path
// behind -v, -metrics and a recorded run's counters.
func TestUnbalancedTaskEndMetric(t *testing.T) {
	w, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(NewStoreSink(w.Begin(RunHeader{Prog: "t.c"})))
	tr.End(5, 1, "omp", "implicit", map[string]any{"task": uint64(9)})
	reg := obs.NewRegistry()
	tr.PublishMetrics(reg)
	if got := reg.Snapshot().Counters["trace_store_unbalanced_ends_total"]; got != 1 {
		t.Fatalf("trace_store_unbalanced_ends_total = %d, want 1", got)
	}
}
