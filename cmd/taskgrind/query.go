package main

// The `taskgrind query` subcommand: cross-run analytics over a recorded run
// store, and the `taskgrind explore` subcommand that produces one. The
// store is append-only and deterministic (block-clock timestamps), so query
// output for a given (program, seed) recording is byte-stable — the
// property the golden tests pin.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/explore"
	"repro/internal/gbuild"
	"repro/internal/obs/store"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
	"repro/internal/trace"
)

// queryUsage enumerates the verbs.
const queryUsage = `usage: taskgrind query <verb> -store <dir> [flags]

verbs:
  top       top-N symbols by weighted profile samples or span time
  spans     filtered span dump (JSONL)
  instants  filtered instant dump (JSONL)
  races     race rows joined with the racing threads' task spans (JSONL)
  agg       cross-seed aggregation: verdict matrix, failure taxonomy, work stats
  gantt     render one recorded run's task schedule
`

// runQuery dispatches `taskgrind query <verb> [flags]`.
func runQuery(args []string, stdout io.Writer) {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, queryUsage)
		os.Exit(2)
	}
	verb, args := args[0], args[1:]
	fs := flag.NewFlagSet("query "+verb, flag.ExitOnError)
	var (
		storeDir = fs.String("store", "", "run store directory (required)")
		runID    = fs.Uint64("run", 0, "filter: run ID (0 = all)")
		tool     = fs.String("tool", "", "filter: tool name")
		prog     = fs.String("prog", "", "filter: program name")
		verdict  = fs.String("verdict", "", "filter: verdict (ok, fault, panic, timeout, deadlock, divergence, error)")
		seed     = fs.Int64("seed", -1, "filter: scheduler seed (-1 = all)")
		thread   = fs.Int("thread", -1, "filter: guest thread (-1 = all)")
		sym      = fs.String("sym", "", "filter: symbol / span label / instant name")
		kind     = fs.String("kind", "", "filter: span/instant kind (task, implicit, parallel, translation, sched, omp, inject, diag)")
		minTS    = fs.Uint64("min-ts", 0, "filter: minimum block-clock time")
		maxTS    = fs.Uint64("max-ts", 0, "filter: maximum block-clock time (0 = unbounded)")
		noPrune  = fs.Bool("no-prune", false, "disable footer-index block pruning (full scan)")
		by       = fs.String("by", "samples", "top: rank by \"samples\" (profile weight) or \"span\" (span time)")
		topN     = fs.Int("n", 10, "top: row bound (0 = all)")
		width    = fs.Int("width", 72, "gantt: chart width in columns")
	)
	fs.Parse(args)
	if *storeDir == "" {
		fatal(fmt.Errorf("query: -store is required"))
	}
	r, err := store.OpenReader(*storeDir)
	if err != nil {
		fatal(err)
	}
	r.NoPrune = *noPrune
	q := store.Q{
		Run: *runID, Tool: *tool, Prog: *prog, Verdict: *verdict,
		Sym: *sym, Kind: *kind, MinTS: *minTS, MaxTS: *maxTS,
	}
	if *seed >= 0 {
		s := uint64(*seed)
		q.Seed = &s
	}
	if *thread >= 0 {
		t := *thread
		q.Thread = &t
	}

	switch verb {
	case "top":
		entries, err := store.TopSymbols(r, q, *by, *topN)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "%12s %12s %6s  %s\n", "WEIGHT", "SPAN_TIME", "SPANS", "SYMBOL")
		for _, e := range entries {
			fmt.Fprintf(stdout, "%12d %12d %6d  %s\n", e.Weight, e.SpanTime, e.Spans, e.Sym)
		}
	case "spans":
		spans, err := r.Spans(q)
		if err != nil {
			fatal(err)
		}
		writeJSONL(stdout, len(spans), func(i int) any { return spans[i] })
	case "instants":
		ins, err := r.Instants(q)
		if err != nil {
			fatal(err)
		}
		writeJSONL(stdout, len(ins), func(i int) any { return ins[i] })
	case "races":
		joins, err := store.JoinRaces(r, q)
		if err != nil {
			fatal(err)
		}
		writeJSONL(stdout, len(joins), func(i int) any { return joins[i] })
	case "agg":
		headers, err := r.Runs(q)
		if err != nil {
			fatal(err)
		}
		printAgg(stdout, headers)
	case "gantt":
		if *runID == 0 {
			fatal(fmt.Errorf("query gantt: -run is required"))
		}
		if err := renderGantt(stdout, r, q, *width); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprint(os.Stderr, queryUsage)
		os.Exit(2)
	}
}

// writeJSONL streams n records as one JSON object per line.
func writeJSONL(w io.Writer, n int, get func(i int) any) {
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(get(i)); err != nil {
			fatal(err)
		}
	}
}

// renderGantt draws the task schedule of the recorded spans q selects: the
// renderer behind both `query gantt` and the single-run -trace flag.
func renderGantt(w io.Writer, r *store.Reader, q store.Q, width int) error {
	spans, err := r.Spans(q)
	if err != nil {
		return err
	}
	return trace.Gantt(w, ganttSpans(spans), width)
}

// ganttSpans maps recorded task-like spans onto the trace renderer's span
// type, synthesizing stable glyph IDs from the span labels.
func ganttSpans(spans []store.Span) []trace.Span {
	ids := map[string]uint64{}
	var out []trace.Span
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
			id = uint64(len(ids) + 1)
			ids[key] = id
		}
		label := s.Sym
		if label == "" && s.Kind != "implicit" {
			label = key
		}
		if s.Kind == "implicit" {
			label = "implicit"
		}
		out = append(out, trace.Span{
			Thread: s.Thread, TaskID: id, Label: label,
			Start: s.Start, End: s.End,
		})
	}
	return out
}

// printAgg renders the cross-seed aggregation: the reconstructed sweep
// outcome (bit-identical to the in-process summary), the verdict matrix,
// the failure taxonomy and the work statistics.
func printAgg(w io.Writer, headers []store.RunHeader) {
	if len(headers) == 0 {
		fmt.Fprintln(w, "(no runs matched)")
		return
	}
	stats := store.Aggregate(headers)
	tool := headers[0].Tool
	out := explore.Rebuild(tool, headers)
	fmt.Fprintf(w, "runs: %d\n", stats.Runs)
	fmt.Fprintln(w, out.String())
	fmt.Fprintf(w, "verdicts: %s\n", countMap(stats.Verdicts))
	tax := map[string]int{}
	for v, n := range stats.Verdicts {
		if v != store.VerdictOK {
			tax[v] = n
		}
	}
	if len(tax) > 0 {
		fmt.Fprintf(w, "taxonomy: %s\n", countMap(tax))
	}
	if len(stats.Reports) > 0 {
		keys := make([]int, 0, len(stats.Reports))
		for k := range stats.Reports {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%d×%d", k, stats.Reports[k]))
		}
		fmt.Fprintf(w, "reports (count×seeds): %s\n", strings.Join(parts, " "))
	}
	if len(out.Failed) > 0 {
		for _, f := range out.Failures {
			mark := ""
			if f.Reproduced {
				mark = " (reproduced)"
			}
			fmt.Fprintf(w, "quarantined seed %d: %s%s\n", f.Seed, f.Kind, mark)
		}
	}
	fmt.Fprintf(w, "instrs: total=%d min=%d max=%d\n",
		stats.InstrsTotal, stats.InstrsMin, stats.InstrsMax)
	fmt.Fprintf(w, "wall: total=%dns (host time; nondeterministic)\n", stats.WallNanosTotal)
}

// countMap renders a string→count map as sorted "k=v" pairs.
func countMap(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// runExplore dispatches `taskgrind explore [flags]`: a multi-seed sweep,
// optionally recorded into a run store for `taskgrind query`.
func runExplore(args []string, stdout io.Writer) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	var (
		prog       = fs.String("prog", "task.c", "program to sweep (-list on the main command)")
		tool       = fs.String("tool", "taskgrind", fmt.Sprintf("analysis tool %v", toolreg.Names()))
		threads    = fs.Int("threads", 4, "OMP_NUM_THREADS")
		seeds      = fs.Int("seeds", 16, "number of scheduler seeds (1..N)")
		workers    = fs.Int("workers", 4, "concurrent machines")
		recordDir  = fs.String("record", "", "record every run into this store directory")
		supervised = fs.Bool("supervised", false, "drive every seed through the crash-recovery supervisor (verified quarantine)")
		inject     = fs.String("inject", "", "fault injection spec applied to every seed, e.g. \"trylock=3\" (kinds: heap, pool, steal, sched, panic, spurious, handoff, trylock)")
		injectSeed = fs.Uint64("inject-seed", 1, "fault injection seed (phases the -inject firing patterns)")
		s          = fs.Int("s", 8, "lulesh: mesh size")
		tel        = fs.Int("tel", 4, "lulesh: tasks per element loop")
		tnl        = fs.Int("tnl", 4, "lulesh: tasks per node loop")
		iter       = fs.Int("i", 2, "lulesh: iterations")
		racy       = fs.Bool("racy", false, "lulesh: drop a task dependence")
	)
	fs.Parse(args)
	sp := explore.Spec{
		Prog: *prog, Tool: *tool, Threads: *threads,
		Inject: *inject, InjectSeed: *injectSeed, Supervised: *supervised,
		LSize: *s, LIters: *iter, LTasksEl: *tel, LTasksNd: *tnl, LRacy: *racy,
	}
	sp.Normalize()
	if _, err := progs.Build(sp.Prog, sp.Lulesh()); err != nil {
		fatal(err)
	}
	opts := explore.Opts{Workers: *workers}
	if *recordDir != "" {
		w, err := store.Create(*recordDir)
		if err != nil {
			fatal(err)
		}
		defer w.Close()
		opts.Record = w
	}
	mk := func() *gbuild.Builder {
		b, err := progs.Build(sp.Prog, sp.Lulesh())
		if err != nil {
			fatal(err)
		}
		return b
	}
	out, err := explore.RunOpts(mk, sp, *seeds, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(stdout, out.String())
	for _, f := range out.Failures {
		mark := ""
		if f.Reproduced {
			mark = " (reproduced)"
		}
		fmt.Fprintf(stdout, "quarantined seed %d: %s%s — %s\n", f.Seed, f.Kind, mark, f.Err)
	}
	if opts.Record != nil {
		flushed, dropped, runs := opts.Record.Stats()
		fmt.Fprintf(stdout, "recorded %d run(s) to %s (batches=%d dropped=%d)\n",
			runs, *recordDir, flushed, dropped)
	}
}
