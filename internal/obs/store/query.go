package store

// Query helpers shared by the `taskgrind query` CLI verbs and the tests:
// symbol aggregation over recorded profiles/spans, the task-schedule Gantt
// chart and the race-to-span join.

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// TopEntry is one row of a symbol aggregation.
type TopEntry struct {
	Sym string `json:"sym"`
	// Weight is the summed profile sample weight (guest instructions).
	Weight uint64 `json:"weight,omitempty"`
	// SpanTime is the summed span duration in block-clock ticks; Spans the
	// interval count.
	SpanTime uint64 `json:"span_time,omitempty"`
	Spans    uint64 `json:"spans,omitempty"`
}

// symKey attributes a span to a symbol: the resolved guest symbol when
// available, else the human label.
func symKey(sym, name string) string {
	if sym != "" {
		return sym
	}
	if name != "" {
		return name
	}
	return "?"
}

// TopSymbols aggregates the store by symbol: by "samples" ranks on summed
// profile weight, by "span" on summed span time. n bounds the result
// (0 = all). Ordering is deterministic: rank desc, then symbol asc.
func TopSymbols(r *Reader, q Q, by string, n int) ([]TopEntry, error) {
	agg := map[string]*TopEntry{}
	get := func(sym string) *TopEntry {
		e, ok := agg[sym]
		if !ok {
			e = &TopEntry{Sym: sym}
			agg[sym] = e
		}
		return e
	}
	samples, err := r.Samples(q)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		e := get(symKey(s.Sym, ""))
		e.Weight += s.Weight
	}
	spans, err := r.Spans(q)
	if err != nil {
		return nil, err
	}
	for _, s := range spans {
		e := get(symKey(s.Sym, s.Name))
		e.SpanTime += s.End - s.Start
		e.Spans++
	}
	out := make([]TopEntry, 0, len(agg))
	for _, e := range agg {
		out = append(out, *e)
	}
	rank := func(e TopEntry) uint64 {
		if by == "span" {
			return e.SpanTime
		}
		return e.Weight
	}
	sort.Slice(out, func(i, j int) bool {
		if rank(out[i]) != rank(out[j]) {
			return rank(out[i]) > rank(out[j])
		}
		return out[i].Sym < out[j].Sym
	})
	// Drop zero-ranked rows (symbols with only the other record kind).
	for len(out) > 0 && rank(out[len(out)-1]) == 0 {
		out = out[:len(out)-1]
	}
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// Gantt renders the task schedule of spans as text: one row per guest
// thread, columns are block-clock buckets, and each task label gets a
// glyph in order of first appearance. Only task, implicit and parallel
// spans are drawn; width <= 0 means 72 columns. Seeing the schedule that
// produced a report makes the report actionable.
func Gantt(w io.Writer, spans []Span, width int) error {
	const glyphs = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	type bar struct {
		thread, glyph int
		start, end    uint64
	}
	var bars []bar
	ids := map[string]int{} // span label -> glyph index
	var legend []string     // glyph index -> legend text ("" = unnamed)
	var maxEnd uint64
	maxThread := 0
	for _, s := range spans {
		if s.Kind != "task" && s.Kind != "implicit" && s.Kind != "parallel" {
			continue
		}
		key := s.Name
		if key == "" {
			key = s.Kind
		}
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
			legend = append(legend, "")
		}
		// The legend names a glyph after the first of its non-implicit
		// spans: its symbol, else its label.
		if legend[id] == "" && s.Kind != "implicit" {
			legend[id] = s.Sym
			if legend[id] == "" {
				legend[id] = key
			}
		}
		bars = append(bars, bar{s.Thread, id, s.Start, s.End})
		maxEnd = max(maxEnd, s.End)
		maxThread = max(maxThread, s.Thread)
	}
	if len(bars) == 0 {
		_, err := fmt.Fprintln(w, "(no task spans recorded)")
		return err
	}
	if width <= 0 {
		width = 72
	}
	maxEnd = max(maxEnd, 1)
	for tid := 0; tid <= maxThread; tid++ {
		row := []byte(strings.Repeat(".", width))
		for _, b := range bars {
			if b.thread != tid {
				continue
			}
			lo := int(b.start * uint64(width) / maxEnd)
			hi := int(b.end * uint64(width) / maxEnd)
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = glyphs[b.glyph%len(glyphs)]
			}
		}
		if _, err := fmt.Fprintf(w, "thr %d |%s|\n", tid, row); err != nil {
			return err
		}
	}
	var parts []string
	for id, label := range legend {
		if label != "" {
			parts = append(parts, fmt.Sprintf("%c=%s", glyphs[id%len(glyphs)], label))
		}
	}
	if len(parts) > 0 {
		if _, err := fmt.Fprintln(w, "      ", strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// RaceJoin is one race-report row joined with the racing threads' task
// spans — the schedule context that makes the report actionable.
type RaceJoin struct {
	Run  uint64  `json:"run"`
	Seed uint64  `json:"seed,omitempty"`
	Race RaceRow `json:"race"`
	// SpansA/SpansB are the task/implicit spans executed by the two racing
	// threads; when a span's label or symbol matches the race's segment
	// label the join narrows to those.
	SpansA []Span `json:"spans_a,omitempty"`
	SpansB []Span `json:"spans_b,omitempty"`
}

// threadTaskSpans selects the task-like spans of one thread, narrowed to
// those matching the segment label when any do.
func threadTaskSpans(spans []Span, thread int, seg string) []Span {
	var all, matched []Span
	for _, s := range spans {
		if s.Thread != thread {
			continue
		}
		if s.Kind != "task" && s.Kind != "implicit" && s.Kind != "parallel" {
			continue
		}
		all = append(all, s)
		if seg != "" && (s.Name == seg || s.Sym == seg) {
			matched = append(matched, s)
		}
	}
	if len(matched) > 0 {
		return matched
	}
	return all
}

// JoinRaces joins every matching run's race rows with the spans of the
// racing threads.
func JoinRaces(r *Reader, q Q) ([]RaceJoin, error) {
	runs, err := r.Data(q)
	if err != nil {
		return nil, err
	}
	var out []RaceJoin
	for _, rd := range runs {
		for _, race := range rd.Header.Races {
			out = append(out, RaceJoin{
				Run:    rd.Header.ID,
				Seed:   rd.Header.Seed,
				Race:   race,
				SpansA: threadTaskSpans(rd.Spans, race.ThreadA, race.SegA),
				SpansB: threadTaskSpans(rd.Spans, race.ThreadB, race.SegB),
			})
		}
	}
	return out, nil
}

// AggStats summarizes one store slice for `query agg`: per-verdict run
// counts, the failure taxonomy, and per-seed work statistics.
type AggStats struct {
	Runs     int            `json:"runs"`
	Verdicts map[string]int `json:"verdicts"`
	// Reports histograms the per-run report counts of ok runs.
	Reports map[int]int `json:"reports"`
	// Wall/Instr aggregates (wall is host time — nondeterministic).
	WallNanosTotal uint64 `json:"wall_nanos_total"`
	InstrsTotal    uint64 `json:"instrs_total"`
	InstrsMin      uint64 `json:"instrs_min,omitempty"`
	InstrsMax      uint64 `json:"instrs_max,omitempty"`
}

// Aggregate folds the matching run headers into summary statistics.
func Aggregate(headers []RunHeader) AggStats {
	a := AggStats{Verdicts: map[string]int{}, Reports: map[int]int{}}
	for _, h := range headers {
		a.Runs++
		a.Verdicts[h.Verdict]++
		if h.Verdict == VerdictOK {
			a.Reports[h.Reports]++
		}
		a.WallNanosTotal += h.WallNanos
		a.InstrsTotal += h.Instrs
		if h.Instrs > 0 {
			if a.InstrsMin == 0 || h.Instrs < a.InstrsMin {
				a.InstrsMin = h.Instrs
			}
			if h.Instrs > a.InstrsMax {
				a.InstrsMax = h.Instrs
			}
		}
	}
	return a
}
