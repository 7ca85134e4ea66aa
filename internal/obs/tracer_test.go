package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRingSinkOrderAndWrap(t *testing.T) {
	ring := NewRingSink(3)
	tr := NewTracer(ring)
	for i := uint64(0); i < 5; i++ {
		tr.Instant(i, 0, "t", "e", nil)
	}
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("kept %d events", len(evs))
	}
	if evs[0].TS != 2 || evs[2].TS != 4 {
		t.Fatalf("order wrong: %+v", evs)
	}
	if ring.Dropped() != 2 {
		t.Fatalf("dropped = %d", ring.Dropped())
	}
	if tr.Events() != 5 {
		t.Fatalf("tracer events = %d", tr.Events())
	}
}

// chromeEvents decodes a trace_event array written by ChromeSink.
func chromeEvents(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, data)
	}
	return evs
}

func TestChromeSinkValidJSONAndBalance(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewChromeSink(&buf))
	tr.Begin(0, 0, "omp", "implicit", nil)
	tr.Begin(2, 0, "omp", "task", nil)
	tr.Instant(3, 0, "sched", "steal", nil)
	tr.End(4, 0, "omp", "task", nil)
	tr.Begin(1, 1, "omp", "implicit", nil)
	tr.End(6, 1, "omp", "implicit", nil)
	tr.End(7, 0, "omp", "implicit", nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs := chromeEvents(t, buf.Bytes())
	if len(evs) != 7 {
		t.Fatalf("events = %d", len(evs))
	}
	// Per-thread: ts monotone nondecreasing, B/E balanced and nested.
	lastTS := map[int]float64{}
	depth := map[int]int{}
	for _, ev := range evs {
		tid := int(ev["tid"].(float64))
		ts := ev["ts"].(float64)
		if ts < lastTS[tid] {
			t.Fatalf("ts went backwards on tid %d: %v", tid, ev)
		}
		lastTS[tid] = ts
		switch ev["ph"] {
		case "B":
			depth[tid]++
		case "E":
			depth[tid]--
			if depth[tid] < 0 {
				t.Fatalf("unbalanced E on tid %d", tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d left %d spans open", tid, d)
		}
	}
}

func TestChromeSinkEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	evs := chromeEvents(t, buf.Bytes())
	if len(evs) != 0 {
		t.Fatalf("empty trace decoded to %d events", len(evs))
	}
}
