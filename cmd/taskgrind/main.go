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
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/drb"
	"repro/internal/explore"
	"repro/internal/gasm"
	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
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
		threads = flag.Int("threads", 4, "OMP_NUM_THREADS")
		seed    = flag.Uint64("seed", 1, "scheduler seed")
		list    = flag.Bool("list", false, "list available programs")
		verbose = flag.Bool("v", false, "print run statistics")
		dotFile = flag.String("dot", "", "write the segment graph (Graphviz DOT) to this file (taskgrind tools only)")
		gantt   = flag.Bool("trace", false, "print a task-schedule Gantt chart after the run")
		// Observability outputs.
		metricsFile  = flag.String("metrics", "", "write a metrics snapshot (JSON) to this file")
		recordDir    = flag.String("record", "", "append this run (spans, instants, profile samples, counters, verdict) to a run store directory (query with `taskgrind query`)")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace_event trace to this file (load in chrome://tracing or ui.perfetto.dev)")
		profileFile  = flag.String("profile", "", "write a guest-PC profile (per-symbol + flat) to this file")
		profileEvery = flag.Uint64("profile-interval", 1, "sample every Nth block for -profile")
		// Robustness knobs: watchdog budgets, memory model, fault injection.
		maxBlocks  = flag.Uint64("max-blocks", 0, "watchdog: abort after N basic blocks (0 = unlimited)")
		maxInstrs  = flag.Uint64("max-instrs", 0, "watchdog: abort after N guest instructions (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "watchdog: abort after this wall-clock time (0 = unlimited)")
		lenientMem = flag.Bool("lenient-mem", false, "disable the strict guest memory model (wild accesses allocate silently)")
		inject     = flag.String("inject", "", "fault injection spec, e.g. \"pool=7,steal=3\" (kinds: heap, pool, steal, sched, panic, spurious, handoff, trylock)")
		injectSeed = flag.Uint64("inject-seed", 1, "fault injection seed (phases the -inject firing patterns)")
		// Recovery knobs: replay tokens, panic fallback.
		replayTok = flag.String("replay", "", "re-run the configuration encoded in a crash report's replay token (tg1:...) in place of the program, tool, seed and other configuration flags")
		onPanic   = flag.String("on-panic", "report", "host panic reaction: report (contain + render), fallback (verify a crash by replay; rewind a host panic and re-execute under the IR oracle)")
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
	// The flags spell out a run recipe. A replay token is a complete one;
	// decoding it turns this invocation into a byte-for-byte re-run of the
	// crashed one.
	sp := explore.Spec{
		Prog: *prog, Tool: *tool, Seed: *seed, Threads: *threads,
		Inject: *inject, InjectSeed: *injectSeed, Lenient: *lenientMem,
		LSize: *s, LIters: *iter, LTasksEl: *tel, LTasksNd: *tnl, LRacy: *racy,
	}
	if *replayTok != "" {
		var err error
		if sp, err = explore.ParseToken(*replayTok); err != nil {
			fatal(err)
		}
		*asmFile = ""
	}
	sp.Normalize()
	sp.MaxBlocks, sp.MaxInstrs, sp.Supervised = *maxBlocks, *maxInstrs, *onPanic == "fallback"
	env := explore.Env{Timeout: *timeout, Metrics: *verbose || *metricsFile != ""}

	var b *gbuild.Builder
	var err error
	if *asmFile != "" {
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			fatal(rerr)
		}
		b, err = gasm.Assemble(string(src))
		// An assembled source has no program name to encode, so -asm runs
		// carry no replay token.
		sp.Prog, env.Label = "", *asmFile
	} else {
		b, err = progs.Build(sp.Prog, sp.Lulesh())
	}
	if err != nil {
		fatal(err)
	}
	im, err := b.Link()
	if err != nil {
		fatal(err)
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
	if storeDir != "" {
		if env.Record, err = store.Create(storeDir); err != nil {
			fatal(err)
		}
	}
	if *profileFile != "" || env.Record != nil {
		env.ProfileEvery = *profileEvery
	}
	var traceF *os.File
	if *traceOut != "" {
		if traceF, err = os.Create(*traceOut); err != nil {
			fatal(err)
		}
		env.Sinks = []obs.Sink{obs.NewChromeSink(traceF)}
	}
	start := time.Now()
	run, err := explore.Execute(nil, im, sp, env)
	if env.Record != nil {
		err = errors.Join(err, env.Record.Close())
	}
	if traceF != nil {
		traceF.Close()
	}
	if err != nil {
		fatal(err)
	}
	res := run.Result
	os.Stdout.WriteString(run.Stdout)
	if run.FellBack {
		fmt.Fprintf(os.Stderr, "==taskgrind== host panic contained at slice window [%d,%d]: re-executed under the IR oracle\n",
			run.Window[0], run.Window[1])
	}
	if run.Verdict == harness.TaxDivergence && res.Err == nil {
		fmt.Fprintf(os.Stderr, "==taskgrind== %s\n", run.Err)
	}
	if res.Crash != nil {
		// A contained failure: render the Valgrind-style report, symbolized
		// through the image, and exit with the failure taxonomy's documented
		// code (fault=3, panic=4, timeout=5, deadlock=6, divergence=7,
		// canceled=8; see README).
		os.RemoveAll(scratchDir)
		fmt.Fprint(os.Stderr, run.Crash)
		if in := run.Inst.Inject; in.Enabled() {
			fmt.Fprintf(os.Stderr, "==taskgrind== fault injection: %s\n", in.Summary())
		}
		os.Exit(harness.ExitCodeFor(run.Verdict))
	}
	if res.Err != nil {
		fatal(res.Err)
	}
	if reg := run.Metrics; reg != nil {
		// One snapshot feeds both the -v text dump and the -metrics JSON
		// file, so the two views cannot disagree. Wall time stays out of
		// the registry: the snapshot is deterministic for a given seed.
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
	if *profileFile != "" {
		pf, cerr := os.Create(*profileFile)
		if cerr != nil {
			fatal(cerr)
		}
		if werr := run.Profile.Report(pf, im, 25); werr != nil {
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
		if err := renderGantt(os.Stdout, r, store.Q{Run: run.RunID}, 72); err != nil {
			fatal(err)
		}
		os.RemoveAll(scratchDir)
	}
	if tt, ok := run.Inst.Core.Tool().(*core.Taskgrind); ok && *dotFile != "" {
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
	fmt.Print(run.Report)
	if run.Verdict != store.VerdictOK {
		os.Exit(harness.ExitCodeFor(run.Verdict))
	}
	if run.Reports > 0 {
		os.Exit(1)
	}
}

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
