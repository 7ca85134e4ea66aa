package store

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeRun records one synthetic run with a deterministic shape derived from
// the seed, so tests can regenerate the same store byte-for-byte.
func writeRun(t *testing.T, w *Writer, seed uint64) RunHeader {
	t.Helper()
	rw := w.Begin(RunHeader{
		Prog: "task.c", Tool: "taskgrind", Engine: "compiled",
		Seed: seed, Threads: 4,
	})
	base := seed * 100
	for th := 0; th < 4; th++ {
		rw.Span(th, "implicit", fmt.Sprintf("task#%d", th), "micro",
			0x1000, base+uint64(th), base+uint64(th)+50)
		rw.Span(th, "task", fmt.Sprintf("task#%d", 10+th), "task_a",
			0x2000, base+uint64(th)+5, base+uint64(th)+15)
		rw.Instant(base+uint64(th)+7, th, "sched", "switch", uint64(th))
	}
	rw.Instant(base+3, 1, "omp", "steal", 42)
	rw.Sample(0x1000, "micro", 80)
	rw.Sample(0x2000, "task_a", 20)
	rw.AddRace(RaceRow{SegA: "task.c:8", SegB: "task.c:11",
		ThreadA: 0, ThreadB: 2, Kind: "w/w", Addr: 0x8000000, Bytes: 4, Region: "heap"})
	rw.SetCounters(map[string]uint64{"vm_blocks_executed_total": 10 * seed})
	rw.SetWork(100*seed, 10*seed, 12345)
	rw.SetReplayToken("tg1:test")
	rw.SetResult(VerdictOK, 1, "")
	if err := rw.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return rw.Header()
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := writeRun(t, w, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if h.ID != 1 {
		t.Fatalf("run ID = %d, want 1", h.ID)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	got := runs[0]
	if got.Prog != "task.c" || got.Tool != "taskgrind" || got.Seed != 1 ||
		got.Verdict != VerdictOK || got.Reports != 1 ||
		got.ReplayToken != "tg1:test" || got.Instrs != 100 {
		t.Fatalf("header round-trip mismatch: %+v", got)
	}
	if len(got.Races) != 1 || got.Races[0].SegA != "task.c:8" {
		t.Fatalf("races round-trip mismatch: %+v", got.Races)
	}
	if got.Counters["vm_blocks_executed_total"] != 10 {
		t.Fatalf("counters round-trip mismatch: %v", got.Counters)
	}

	spans, err := r.Spans(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 {
		t.Fatalf("spans = %d, want 8", len(spans))
	}
	// Spans come back sorted by start time.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted at %d: %d < %d", i, spans[i].Start, spans[i-1].Start)
		}
	}
	ins, err := r.Instants(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 5 {
		t.Fatalf("instants = %d, want 5", len(ins))
	}
	samples, err := r.Samples(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].PC != 0x1000 || samples[0].Weight != 80 {
		t.Fatalf("samples round-trip mismatch: %+v", samples)
	}
}

func TestGoldenSegment(t *testing.T) {
	// The encoded segment bytes for a fixed input are a format contract:
	// if this golden changes, old stores need a reader migration.
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	writeRun(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "seg-00001.tgseg"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.tgseg")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes differ from golden (%d vs %d bytes); run with -update if the format change is intentional",
			len(got), len(want))
	}
	// The same input as written by the build that ended segments in a
	// footer index: its frames are this build's segment byte for byte.
	footer, err := os.ReadFile(filepath.Join("testdata", "golden-footer.tgseg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(footer, got) || len(footer) == len(got) {
		t.Fatalf("segment (%d bytes) is not a proper prefix of golden-footer.tgseg (%d bytes)", len(got), len(footer))
	}
}

// segmentStore returns a store directory holding only a copy of the named
// testdata segment as seg-00001 (testdata itself holds several).
func segmentStore(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00001.tgseg"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGoldenStillDecodes opens the checked-in golden segment, the one
// written while segments ended in a footer index, and the one written
// before run headers lost their delivery field: all three hold exactly
// the runs this build records for the same input.
func TestGoldenStillDecodes(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	writeRun(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Data(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || want[0].Header.Seed != 1 || want[1].Header.Seed != 2 || want[0].Header.Engine != "compiled" {
		t.Fatalf("fresh recording: %+v", want)
	}
	for _, name := range []string{"golden.tgseg", "golden-footer.tgseg", "golden-parent.tgseg"} {
		r, err := OpenReader(segmentStore(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := r.Data(Q{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decode mismatch:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestMixedFormatStore: a store whose first segment was written by the
// footer-index build and whose second by this one reads as one store, and
// the second session continues the first one's run IDs.
func TestMixedFormatStore(t *testing.T) {
	dir := segmentStore(t, "golden-footer.tgseg")
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	for i, h := range runs {
		if h.ID != uint64(i+1) || h.Seed != uint64(i+1) {
			t.Fatalf("run %d: id %d seed %d, want %d/%d", i, h.ID, h.Seed, i+1, i+1)
		}
	}
	spans, err := r.Spans(Q{Kind: "task"})
	if err != nil {
		t.Fatal(err)
	}
	perRun := map[uint64]int{}
	for _, s := range spans {
		perRun[s.Run]++
	}
	if !reflect.DeepEqual(perRun, map[uint64]int{1: 4, 2: 4, 3: 4}) {
		t.Fatalf("task spans per run = %v, want 4 in each of runs 1-3", perRun)
	}
}

func TestAppendSession(t *testing.T) {
	dir := t.TempDir()
	w1, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w1, 1)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second session appends a fresh segment and continues run IDs.
	w2, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := writeRun(t, w2, 2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if h.ID != 2 {
		t.Fatalf("second-session run ID = %d, want 2", h.ID)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].ID != 1 || runs[1].ID != 2 {
		t.Fatalf("append session runs mismatch: %+v", runs)
	}
}

func TestTornSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00001.tgseg")
	writeRun(t, w, 1)
	writeRun(t, w, 2)
	// Finish writes its block straight to the segment, so the file's size
	// now is where the third block starts.
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the file mid-way through the last block. Recovery must keep
	// runs 1 and 2.
	cut := fi.Size() + (int64(len(data))-fi.Size())/2
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Seed != 1 || runs[1].Seed != 2 {
		t.Fatalf("recovered runs mismatch: %+v", runs)
	}
	spans, err := r.Spans(Q{Kind: "task"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 { // 4 task spans per surviving run
		t.Fatalf("recovered spans = %d, want 8", len(spans))
	}

	// A new writer session must append alongside, not touch, the torn file.
	w2, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := writeRun(t, w2, 9)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if h.ID != 3 { // max recoverable run ID was 2
		t.Fatalf("post-recovery run ID = %d, want 3", h.ID)
	}
	r2, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs2, err := r2.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs2) != 3 {
		t.Fatalf("post-recovery runs = %d, want 3", len(runs2))
	}
}

// TestSegmentTornBeforeMagic: a segment cut short before its magic was
// complete (the empty file a crash between create and write leaves)
// holds no runs. It neither hides the store's other segments nor stops a
// new session. A segment of foreign bytes is still refused.
func TestSegmentTornBeforeMagic(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"seg-00002.tgseg": "",
		"seg-00003.tgseg": segMagic[:3],
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if runs, err := r.Runs(Q{}); err != nil || len(runs) != 1 || runs[0].Seed != 1 {
		t.Fatalf("runs = %+v (%v), want the one run of seg-00001", runs, err)
	}
	w2, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h := writeRun(t, w2, 2); h.ID != 2 {
		t.Fatalf("next run ID = %d, want 2", h.ID)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-00004.tgseg")); err != nil {
		t.Fatalf("second session's segment: %v", err)
	}

	if err := os.WriteFile(filepath.Join(dir, "seg-00005.tgseg"), []byte("TGX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(dir); err == nil || !strings.Contains(err.Error(), "bad segment magic") {
		t.Fatalf("foreign segment: err = %v, want bad segment magic", err)
	}
}

// TestSingleWriter: a store has one Writer at a time, so two sessions can
// never hand out the same run IDs. A second Create fails, naming the
// directory, until the first Writer closes.
func TestSingleWriter(t *testing.T) {
	dir := t.TempDir()
	w1, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Create(dir)
	if err == nil {
		w2.Close()
		t.Fatal("second concurrent Create succeeded")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the store directory", err)
	}
	writeRun(t, w1, 1)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := Create(dir)
	if err != nil {
		t.Fatalf("Create after Close: %v", err)
	}
	if h := writeRun(t, w3, 2); h.ID != 2 {
		t.Fatalf("next session's run ID = %d, want 2", h.ID)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rw := w.Begin(RunHeader{Prog: "task.c", Tool: "taskgrind", Seed: uint64(i + 1)})
			for j := 0; j < 5000; j++ {
				rw.Span(i%4, "task", "t", "sym", uint64(j), uint64(j), uint64(j+1))
			}
			rw.SetResult(VerdictOK, i, "")
			errs[i] = rw.Finish()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != n {
		t.Fatalf("runs = %d, want %d", len(runs), n)
	}
	seen := map[uint64]bool{}
	seeds := map[uint64]bool{}
	for _, h := range runs {
		if seen[h.ID] {
			t.Fatalf("duplicate run ID %d", h.ID)
		}
		seen[h.ID] = true
		seeds[h.Seed] = true
	}
	if len(seeds) != n {
		t.Fatalf("seeds = %d, want %d", len(seeds), n)
	}
	for i := uint64(1); i <= n; i++ {
		sp, err := r.Spans(Q{Seed: &i})
		if err != nil {
			t.Fatal(err)
		}
		if len(sp) != 5000 {
			t.Fatalf("seed %d spans = %d, want 5000", i, len(sp))
		}
	}
}

func TestMaxEventsDrop(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rw := w.Begin(RunHeader{Prog: "p", Tool: "t", Seed: 1})
	// Count the run as already holding all but 100 of its events, so the
	// bound is reached without recording a million of them.
	rw.events = DefaultMaxEvents - 100
	for i := 0; i < 250; i++ {
		rw.Instant(uint64(i), 0, "k", "n", 0)
	}
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	if dropped := rw.Dropped(); dropped != 150 {
		t.Fatalf("dropped = %d, want 150", dropped)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wDropped, _ := w.Stats()
	if wDropped != 150 {
		t.Fatalf("writer dropped = %d, want 150", wDropped)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := r.Instants(Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 100 {
		t.Fatalf("retained instants = %d, want 100", len(ins))
	}
}

func TestTopSymbolsAndAggregate(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	// One failed run for the verdict matrix.
	rw := w.Begin(RunHeader{Prog: "task.c", Tool: "taskgrind", Seed: 2})
	rw.SetResult("panic", 0, "boom")
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
	top, err := TopSymbols(r, Q{}, "samples", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Sym != "micro" || top[0].Weight != 80 {
		t.Fatalf("top samples mismatch: %+v", top)
	}
	bySpan, err := TopSymbols(r, Q{}, "span", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySpan) != 1 || bySpan[0].Sym != "micro" || bySpan[0].SpanTime != 200 {
		t.Fatalf("top span mismatch: %+v", bySpan)
	}

	joins, err := JoinRaces(r, Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(joins) != 1 || joins[0].Race.Kind != "w/w" {
		t.Fatalf("race join mismatch: %+v", joins)
	}
	// Thread 0 and 2 each executed one implicit + one task span.
	if len(joins[0].SpansA) != 2 || len(joins[0].SpansB) != 2 {
		t.Fatalf("race join spans: a=%d b=%d, want 2/2", len(joins[0].SpansA), len(joins[0].SpansB))
	}

	runs, err := r.Runs(Q{})
	if err != nil {
		t.Fatal(err)
	}
	agg := Aggregate(runs)
	if agg.Runs != 2 || agg.Verdicts[VerdictOK] != 1 || agg.Verdicts["panic"] != 1 {
		t.Fatalf("aggregate mismatch: %+v", agg)
	}
	if agg.Reports[1] != 1 {
		t.Fatalf("report histogram mismatch: %+v", agg.Reports)
	}

	// Verdict-filtered header query.
	okRuns, err := r.Runs(Q{Verdict: VerdictOK})
	if err != nil {
		t.Fatal(err)
	}
	if len(okRuns) != 1 || okRuns[0].Seed != 1 {
		t.Fatalf("verdict filter mismatch: %+v", okRuns)
	}
}

// TestSamplesIgnoreRowFilters: samples carry no clock, thread or kind, so
// a time window, thread or kind filter keeps every matching run's samples
// (and so `query top` ranks them) even where no span or instant of the run
// falls inside it.
func TestSamplesIgnoreRowFilters(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, 1)
	writeRun(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	th := 7
	for _, q := range []Q{{MinTS: 1e9}, {Thread: &th}, {Kind: "no-such-kind"}} {
		samples, err := r.Samples(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 4 {
			t.Fatalf("%+v: samples = %d, want all 4", q, len(samples))
		}
	}
}

func TestEmptyGantt(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, nil, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no task spans") {
		t.Fatalf("empty gantt: %q", buf.String())
	}
}

// TestStableEncoding pins that two identical recordings produce identical
// bytes — the property the CLI golden tests lean on.
func TestStableEncoding(t *testing.T) {
	record := func() []byte {
		dir := t.TempDir()
		w, err := Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		writeRun(t, w, 7)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "seg-00001.tgseg"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := record(), record()
	if string(a) != string(b) {
		t.Fatal("identical recordings produced different bytes")
	}
}
