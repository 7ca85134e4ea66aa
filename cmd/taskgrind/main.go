// Command taskgrind runs a built-in guest program under an analysis tool —
// the equivalent of `valgrind --tool=taskgrind ./a.out` in the paper's
// setup. Programs are selected by name: every DRB/TMB microbenchmark, the
// LULESH proxy, and the paper's Listing 4 example.
//
// Usage:
//
//	taskgrind -prog 027-taskdependmissing-orig -tool taskgrind -threads 4
//	taskgrind -prog lulesh -racy -s 8 -tool taskgrind
//	taskgrind -prog task.c -tool romp
//	taskgrind -list
//
// Subcommands:
//
//	taskgrind explore -prog task.c -seeds 100 -record /tmp/runs
//	taskgrind query agg -store /tmp/runs
//	taskgrind query top -store /tmp/runs -by samples -n 10
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/faultinject"
	"repro/internal/gasm"
	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
	"repro/internal/vm"
)

func main() {
	// Subcommand dispatch: `taskgrind query ...` and `taskgrind explore ...`
	// operate on/produce run stores; everything else is the single-run flag
	// interface.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "query":
			runQuery(os.Args[2:], os.Stdout)
			return
		case "explore":
			runExplore(os.Args[2:], os.Stdout)
			return
		case "submit":
			os.Exit(runSubmit(os.Args[2:], os.Stdout))
		case "status":
			os.Exit(runStatus(os.Args[2:], os.Stdout))
		case "cancel":
			os.Exit(runCancel(os.Args[2:], os.Stdout))
		}
	}
	var (
		prog    = flag.String("prog", "task.c", "program to run (-list to enumerate)")
		asmFile = flag.String("asm", "", "assemble and run a guest .s file instead of -prog")
		tool    = flag.String("tool", "taskgrind", fmt.Sprintf("analysis tool %v", toolreg.Names()))
		engine  = flag.String("engine", "", "execution engine: compiled (micro-ops + block chaining), ir (reference interpreter), \"\" = default")

		tcacheDir      = flag.String("tcache-dir", "", "persistent translation store directory, shared safely by concurrent processes: instrumented+compiled translations are saved per (image,tool,engine) and reused across runs")
		tcacheMaxMB    = flag.Int64("tcache-max-mb", 0, "translation store byte cap in MiB (0 = unbounded); clock eviction keeps the cache under it")
		tcacheMaxUnits = flag.Int64("tcache-max-units", 0, "translation store unit cap (0 = unbounded); clock eviction keeps the cache under it")
		threads        = flag.Int("threads", 4, "OMP_NUM_THREADS")
		seed           = flag.Uint64("seed", 1, "scheduler seed")
		list           = flag.Bool("list", false, "list available programs")
		verbose        = flag.Bool("v", false, "print run statistics")
		dotFile        = flag.String("dot", "", "write the segment graph (Graphviz DOT) to this file (taskgrind tools only)")
		gantt          = flag.Bool("trace", false, "print a task-schedule Gantt chart after the run")
		// Observability outputs.
		metricsFile  = flag.String("metrics", "", "write a metrics snapshot (JSON) to this file")
		recordDir    = flag.String("record", "", "append this run (spans, instants, profile samples, counters, verdict) to a run store directory (query with `taskgrind query`)")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace_event trace to this file (load in chrome://tracing or ui.perfetto.dev)")
		traceBlocks  = flag.Bool("trace-blocks", false, "include per-block dispatch events in -trace-out (very large)")
		profileFile  = flag.String("profile", "", "write a guest-PC profile (per-symbol + flat) to this file")
		profileEvery = flag.Uint64("profile-interval", 1, "sample every Nth block for -profile")
		// Robustness knobs: watchdog budgets, memory model, fault injection.
		maxBlocks  = flag.Uint64("max-blocks", 0, "watchdog: abort after N basic blocks (0 = unlimited)")
		maxInstrs  = flag.Uint64("max-instrs", 0, "watchdog: abort after N guest instructions (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "watchdog: abort after this wall-clock time (0 = unlimited)")
		lenientMem = flag.Bool("lenient-mem", false, "disable the strict guest memory model (wild accesses allocate silently)")
		inject     = flag.String("inject", "", "fault injection spec, e.g. \"pool=7,steal=3\" (kinds: heap, pool, steal, sched, panic, spurious, handoff, trylock; storage: tsread, tswrite, tsnospc, tsshort, tsflip, tslock)")
		injectSeed = flag.Uint64("inject-seed", 1, "fault injection seed (phases the -inject firing patterns)")
		// Recovery knobs: replay tokens, checkpointing, panic fallback.
		replayTok    = flag.String("replay", "", "re-run the configuration encoded in a crash report's replay token (tg1:...); overrides the program/tool/seed flags")
		onPanic      = flag.String("on-panic", "report", "host panic reaction: report (contain + render), fallback (rewind and re-execute under the IR oracle)")
		ckptInterval = flag.Int("ckpt-interval", 0, "capture a guest checkpoint every N timeslices (0 = off; -on-panic=fallback defaults to 16)")
		// LULESH knobs.
		s    = flag.Int("s", 8, "lulesh: mesh size")
		tel  = flag.Int("tel", 4, "lulesh: tasks per element loop")
		tnl  = flag.Int("tnl", 4, "lulesh: tasks per node loop")
		iter = flag.Int("i", 2, "lulesh: iterations")
		racy = flag.Bool("racy", false, "lulesh: drop a task dependence")
	)
	flag.Parse()

	if *list {
		fmt.Println("task.c   (the paper's Listing 4 example)")
		fmt.Println("task.c-critical (Listing 4 with the task bodies in a critical section)")
		fmt.Println("lulesh   (the proxy application; -s -tel -tnl -i -racy)")
		fmt.Println("wildstore (fault-model demo: a task stores through a wild pointer)")
		for _, b := range drb.All() {
			fmt.Println(b.Name)
		}
		for _, b := range drb.LockSuite() {
			fmt.Println(b.Name)
		}
		return
	}

	if *onPanic != "report" && *onPanic != "fallback" {
		fatal(fmt.Errorf("unknown -on-panic %q (report, fallback)", *onPanic))
	}
	// A replay token is the complete run configuration; decoding it turns
	// this invocation into a byte-for-byte re-run of the crashed one.
	sliceLen := 0
	if *replayTok != "" {
		cfg, perr := snapshot.ParseToken(*replayTok)
		if perr != nil {
			fatal(perr)
		}
		if cfg.Prog != "" {
			*prog = cfg.Prog
		}
		if cfg.Tool != "" {
			*tool = cfg.Tool
		}
		if cfg.Seed != 0 {
			*seed = cfg.Seed
		}
		if cfg.Threads != 0 {
			*threads = cfg.Threads
		}
		*engine = cfg.Engine
		*inject, *injectSeed = cfg.Inject, cfg.InjectSeed
		*lenientMem = cfg.Lenient
		sliceLen = cfg.Slice
		if cfg.Prog == "lulesh" {
			*s, *iter, *tel, *tnl, *racy = cfg.LSize, cfg.LIters, cfg.LTasksEl, cfg.LTasksNd, cfg.LRacy
		}
		*asmFile = ""
	}

	var b *gbuild.Builder
	var err error
	if *asmFile != "" {
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			fatal(rerr)
		}
		b, err = gasm.Assemble(string(src))
	} else {
		b, err = buildProgram(*prog, lulesh.Params{S: *s, TEL: *tel, TNL: *tnl, Iters: *iter, Racy: *racy})
	}
	if err != nil {
		fatal(err)
	}
	if _, _, terr := toolreg.Make(*tool); terr != nil {
		fatal(terr)
	}
	if _, perr := faultinject.ParseSpec(*inject, *injectSeed); perr != nil {
		fatal(perr)
	}
	// Every run carries its replay token: the configuration is the recipe,
	// and the run is a pure function of it. Crash reports print the token so
	// `taskgrind -replay <token>` reproduces them byte for byte. Assembled
	// sources have no program name to encode, so -asm runs carry none.
	var token string
	if *asmFile == "" {
		cfg := snapshot.Config{
			Prog: *prog, Tool: *tool, Seed: *seed, Threads: *threads, Slice: sliceLen,
			Engine: *engine, Inject: *inject, Lenient: *lenientMem,
		}
		if *inject != "" {
			cfg.InjectSeed = *injectSeed
		}
		if *prog == "lulesh" {
			cfg.LSize, cfg.LIters, cfg.LTasksEl, cfg.LTasksNd, cfg.LRacy = *s, *iter, *tel, *tnl, *racy
		}
		token = cfg.Token()
	}
	im, err := b.Link()
	if err != nil {
		fatal(err)
	}
	symOf := func(pc uint64) string {
		if sym := im.SymbolFor(pc); sym != nil {
			return sym.Name
		}
		return ""
	}
	// -trace renders the task schedule from the run's recorded spans, so it
	// needs a run store: the -record one, or a temporary one removed on exit.
	storeDir := *recordDir
	if *gantt && storeDir == "" {
		if storeDir, err = os.MkdirTemp("", "taskgrind-trace-"); err != nil {
			fatal(err)
		}
		scratchDir = storeDir
	}
	var storeW *store.Writer
	if storeDir != "" {
		storeW, err = store.Create(storeDir)
		if err != nil {
			fatal(err)
		}
	}
	var tcache *tstore.Cache
	if *tcacheDir != "" {
		opts := tstore.Options{
			Dir:      *tcacheDir,
			MaxBytes: *tcacheMaxMB << 20,
			MaxUnits: *tcacheMaxUnits,
		}
		// Storage faults get their own injector instance: the run injector
		// is rebuilt per supervision attempt, while disk I/O (merges, the
		// final save) spans attempts. Same seed, same deterministic streams
		// — the storage kinds just never alias an attempt's guest-visible
		// draws.
		if *inject != "" {
			sin, _ := faultinject.ParseSpec(*inject, *injectSeed)
			opts.FS = &tstore.FaultFS{In: sin}
		}
		tcache = tstore.NewCacheOpts(opts)
	}
	// makeSetup assembles one attempt's configuration. Under
	// -on-panic=fallback the supervisor may build several attempts (record,
	// replay, IR fallback); tool, injector and observability sinks are all
	// stateful, so each attempt gets fresh ones and the captured variables
	// track the latest — the attempt whose results survive.
	var (
		tl     dbi.Tool
		count  func() int
		hooks  *obs.Hooks
		reg    *obs.Registry
		tracer *obs.Tracer
		prof   *obs.Profiler
		traceF *os.File
		inj    *faultinject.Injector
		outBuf *bytes.Buffer
		srw    *store.RunWriter
	)
	makeSetup := func() harness.Setup {
		tl, count, err = toolreg.Make(*tool)
		if err != nil {
			fatal(err)
		}
		// Assemble the observability hooks. Nil hooks keep every
		// instrumented hot path on its one-pointer-compare fast path.
		hooks, reg, tracer, prof = nil, nil, nil, nil
		if *verbose || *metricsFile != "" || *traceOut != "" || *profileFile != "" || storeW != nil {
			hooks = &obs.Hooks{}
			if *verbose || *metricsFile != "" || storeW != nil {
				reg = obs.NewRegistry()
				hooks.Metrics = reg
			}
			var sinks []obs.Sink
			if *traceOut != "" {
				f, cerr := os.Create(*traceOut)
				if cerr != nil {
					fatal(cerr)
				}
				traceF = f
				sinks = append(sinks, obs.NewChromeSink(f))
			}
			if storeW != nil {
				// Fresh run writer per attempt; a superseded attempt's
				// writer is abandoned (never appended) below.
				if srw != nil {
					srw.Abort()
				}
				progLabel := *prog
				if *asmFile != "" {
					progLabel = *asmFile
				}
				srw = storeW.Begin(store.RunHeader{
					Prog: progLabel, Tool: *tool, Engine: *engine,
					Seed: *seed, Threads: *threads,
				})
				ssink := store.NewStoreSink(srw)
				ssink.SymFn = symOf
				sinks = append(sinks, ssink)
			}
			if len(sinks) > 0 {
				tracer = obs.NewTracer(sinks...)
				tracer.BlockEvents = *traceBlocks
				hooks.Tracer = tracer
			}
			if *profileFile != "" || storeW != nil {
				prof = obs.NewProfiler(*profileEvery)
				hooks.Prof = prof
			}
		}
		inj, _ = faultinject.ParseSpec(*inject, *injectSeed)
		var w io.Writer = os.Stdout
		if *onPanic == "fallback" {
			// Buffer guest output per attempt so a rewound re-execution
			// does not print the pre-panic prefix twice.
			outBuf = &bytes.Buffer{}
			w = outBuf
		}
		return harness.Setup{
			Image: im, Tool: tl, Seed: *seed, Threads: *threads, Stdout: w, Obs: hooks,
			Slice:       sliceLen,
			Inject:      inj,
			LenientMem:  *lenientMem,
			Engine:      *engine,
			CkptEvery:   *ckptInterval,
			ReplayToken: token,
			RunOpts:     vm.RunOpts{MaxBlocks: *maxBlocks, MaxInstrs: *maxInstrs, Timeout: *timeout},
			TStore:      tcache,
		}
	}
	start := time.Now()
	var res harness.Result
	var inst *harness.Instance
	if *onPanic == "fallback" {
		sup, serr := harness.Supervise(makeSetup, harness.SuperviseOpts{
			OnPanic: harness.OnPanicFallback, CkptEvery: *ckptInterval, Token: token,
		})
		if serr != nil {
			fatal(serr)
		}
		res, inst = sup.Result, sup.Inst
		os.Stdout.Write(outBuf.Bytes())
		if sup.FellBack {
			fmt.Fprintf(os.Stderr, "==taskgrind== host panic contained at slice window [%d,%d]: re-executed under the IR oracle\n",
				sup.Window[0], sup.Window[1])
		}
		if sup.Taxonomy == harness.TaxDivergence {
			fmt.Fprintf(os.Stderr, "==taskgrind== engine divergence in slice window [%d,%d] (journal-verified)\n",
				sup.Window[0], sup.Window[1])
		}
	} else {
		inst, err = harness.New(makeSetup())
		if err != nil {
			fatal(err)
		}
		res = inst.Run()
	}
	if tcache != nil {
		// Write the warm start for the next run. Runs on every exit path
		// below (none return early before this point).
		if serr := tcache.Save(); serr != nil {
			fmt.Fprintf(os.Stderr, "==taskgrind== tcache save: %v\n", serr)
		}
	}
	injector := inj
	tracerClosed := false
	closeTracer := func() {
		if tracer == nil || tracerClosed {
			return
		}
		tracerClosed = true
		if cerr := tracer.Close(); cerr != nil {
			fatal(cerr)
		}
		if traceF != nil {
			traceF.Close()
		}
	}
	// finishRecord completes the run-store block: final counters, profile
	// samples, race rows, verdict and replay token. Called on every exit
	// path so crashes are recorded too.
	finishRecord := func(verdict string, reports int) {
		if srw == nil {
			return
		}
		closeTracer() // settles still-open spans through the store sink
		inst.CaptureMetrics(reg)
		srw.SetCounters(reg.Snapshot().Counters)
		srw.SetWork(res.GuestInstrs, inst.M.BlocksExecuted, uint64(res.Wall))
		srw.SetReplayToken(token)
		if tg, ok := tl.(*core.Taskgrind); ok {
			for _, row := range store.RacesFromSet(&tg.Reports) {
				srw.AddRace(row)
			}
		}
		prof.Each(func(pc, n uint64) { srw.Sample(pc, symOf(pc), n) })
		errStr := ""
		if res.Err != nil {
			errStr = res.Err.Error()
		}
		srw.SetResult(verdict, reports, errStr)
		if ferr := srw.Finish(); ferr != nil {
			fatal(ferr)
		}
		if ferr := storeW.Close(); ferr != nil {
			fatal(ferr)
		}
	}
	if res.Crash != nil {
		// A contained failure: render the Valgrind-style report, symbolized
		// through the image, and exit with the failure taxonomy's documented
		// code (fault=3, panic=4, timeout=5, deadlock=6, divergence=7,
		// canceled=8; see README).
		finishRecord(harness.Classify(res.Err), 0)
		os.RemoveAll(scratchDir)
		fmt.Fprint(os.Stderr, res.Crash.Render(inst.M.Image))
		if injector.Enabled() {
			fmt.Fprintf(os.Stderr, "==taskgrind== fault injection: %s\n", injector.Summary())
		}
		os.Exit(harness.ExitCodeFor(harness.Classify(res.Err)))
	}
	if res.Err != nil {
		finishRecord(harness.Classify(res.Err), 0)
		fatal(res.Err)
	}
	finishRecord(store.VerdictOK, count())
	closeTracer()
	if reg != nil {
		// One snapshot feeds both the -v text dump and the -metrics JSON
		// file, so the two views cannot disagree. Wall time stays out of
		// the registry: the snapshot is deterministic for a given seed.
		inst.CaptureMetrics(reg)
		reg.Gauge("run_exit_code").Set(float64(res.ExitCode))
		snap := reg.Snapshot()
		if *verbose {
			fmt.Printf("== exit=%d wall=%v ==\n",
				res.ExitCode, time.Since(start).Round(time.Microsecond))
			if werr := snap.WriteText(os.Stdout); werr != nil {
				fatal(werr)
			}
		}
		if *metricsFile != "" {
			mf, cerr := os.Create(*metricsFile)
			if cerr != nil {
				fatal(cerr)
			}
			if werr := snap.WriteJSON(mf); werr != nil {
				fatal(werr)
			}
			mf.Close()
		}
	}
	if prof != nil && *profileFile != "" {
		pf, cerr := os.Create(*profileFile)
		if cerr != nil {
			fatal(cerr)
		}
		if werr := prof.Report(pf, inst.M.Image, 25); werr != nil {
			fatal(werr)
		}
		pf.Close()
	}
	if *gantt {
		r, rerr := store.OpenReader(storeDir)
		if rerr != nil {
			fatal(rerr)
		}
		fmt.Println("== task schedule (block time) ==")
		if err := renderGantt(os.Stdout, r, store.Q{Run: srw.Header().ID}, 72); err != nil {
			fatal(err)
		}
		os.RemoveAll(scratchDir)
	}
	// Render tool reports.
	if tt, ok := tl.(*core.Taskgrind); ok && *dotFile != "" {
		df, derr := os.Create(*dotFile)
		if derr != nil {
			fatal(derr)
		}
		if derr := tt.DumpDOT(df); derr != nil {
			fatal(derr)
		}
		df.Close()
		fmt.Fprintf(os.Stderr, "segment graph written to %s\n", *dotFile)
	}
	if text, ok := toolreg.Render(tl); ok {
		fmt.Print(text)
	} else {
		fmt.Printf("== %d report(s)\n", count())
	}
	if count() > 0 {
		os.Exit(1)
	}
}

// buildProgram, listing4 and wildstore delegate to the shared program
// registry (internal/progs), which the daemon's job specs resolve through
// as well — one namespace for CLI flags, replay tokens and HTTP jobs.
func buildProgram(name string, lp lulesh.Params) (*gbuild.Builder, error) {
	return progs.Build(name, lp)
}

// listing4 is the paper's erroneous example program (Listing 4).
func listing4() *gbuild.Builder { return progs.Listing4() }

// wildstore is the fault-model demo: a task dereferences an uninitialized
// "pointer" and stores into unmapped memory, which the strict memory model
// turns into a symbolized CrashReport (exit code 3) instead of silent page
// allocation.
func wildstore() *gbuild.Builder { return progs.Wildstore() }

// scratchDir is the temporary run store behind -trace without -record;
// every exit path removes it.
var scratchDir string

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taskgrind:", err)
	if scratchDir != "" {
		os.RemoveAll(scratchDir)
	}
	os.Exit(2)
}
