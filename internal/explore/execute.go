package explore

// Execute is the one code path that turns a Spec into a run. The CLI, the
// daemon and seed sweeps all call it and differ only in what they do with
// the Execution it returns, so a configuration renders, classifies and
// records the same whichever front end ran it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
	"repro/internal/vm"
)

// Env is what a run needs besides its recipe: the translation store it
// shares, the run store it is recorded into, and the caller's own sinks.
type Env struct {
	// TStore shares translations with other runs (nil: none).
	TStore *tstore.Cache
	// Record, when set, records the run: the first attempt's trace and
	// profile, and the surviving attempt's counters, races, verdict and
	// replay token.
	Record *store.Writer
	// Label names the recorded run when the spec has no program name (an
	// assembled source).
	Label string
	// Timeout is the wall budget when the spec carries none (0: none).
	Timeout time.Duration
	// Metrics collects the run's counters into Execution.Metrics.
	Metrics bool
	// Sinks receive the first attempt's trace events.
	Sinks []obs.Sink
	// ProfileEvery, when positive, samples every Nth block into
	// Execution.Profile. A recorded run is profiled at every block unless
	// it is set.
	ProfileEvery uint64
	// ProgressEvery and OnProgress report live progress (see vm.RunOpts).
	ProgressEvery int
	OnProgress    func(blocks, instrs uint64)
}

// Execution is one executed Spec: the attempt whose results survive,
// classified and rendered the way every front end shows it.
type Execution struct {
	// Result and Inst are the surviving attempt's: the IR oracle's when
	// the run fell back to it, else the first attempt's.
	Result harness.Result
	Inst   *harness.Instance
	// Token reproduces the run and is stamped on its crash report.
	Token string
	// Verdict is store.VerdictOK or the failure taxonomy (harness.Tax*).
	// A fallback that diverged from the recording before the panic is a
	// divergence even though it completed.
	Verdict string
	// Err describes a verdict other than ok.
	Err string
	// Reports is the tool's report count when the verdict is ok.
	Reports int
	// Stdout is the surviving attempt's guest output, Report the rendered
	// tool report of a run that completed, and Crash the rendered crash
	// report, replay token line included.
	Stdout, Report, Crash string
	// Reproduced, FellBack and Window echo the supervisor (Spec.Supervised).
	Reproduced bool
	FellBack   bool
	Window     [2]uint64
	// Metrics and Profile hold the run's counters and guest-PC samples
	// (nil unless Env asked for them or the run was recorded).
	Metrics *obs.Registry
	Profile *obs.Profiler
	// RunID identifies the run in Env.Record (0 when not recorded).
	RunID uint64
}

// Execute runs sp on a linked image under ctx (nil: not cancelable). Each
// attempt gets a fresh tool, injector and output buffer; a supervised spec
// verifies a crash once by replay and falls back to the IR oracle on a host
// panic. The error reports a spec that cannot run (unknown tool or
// injection spec) or a run that could not be recorded; every failure of the
// guest or the engine is the Execution's verdict instead.
func Execute(ctx context.Context, im *guest.Image, sp Spec, env Env) (Execution, error) {
	run := Execution{Token: sp.Token()}
	if _, _, err := toolreg.Make(sp.Tool); err != nil {
		return run, err
	}
	if _, err := faultinject.ParseSpec(sp.Inject, sp.InjectSeed); err != nil {
		return run, err
	}
	timeout := time.Duration(sp.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = env.Timeout
	}

	// Only the first attempt is traced and profiled: replays and the
	// fallback re-execute its timeline. Counters are per attempt, and the
	// surviving attempt's are the run's.
	sinks := env.Sinks
	var rw *store.RunWriter
	if env.Record != nil {
		label := sp.Prog
		if label == "" {
			label = env.Label
		}
		rw = env.Record.Begin(store.RunHeader{
			Prog: label, Tool: sp.Tool, Seed: sp.Seed, Threads: sp.Threads,
		})
		run.RunID = rw.Header().ID
		ssink := store.NewStoreSink(rw)
		ssink.SymFn = symbolizer(im)
		sinks = append(sinks[:len(sinks):len(sinks)], ssink)
	}
	var tr *obs.Tracer
	if len(sinks) > 0 {
		tr = obs.NewTracer(sinks...)
	}
	if env.ProfileEvery > 0 || rw != nil {
		run.Profile = obs.NewProfiler(env.ProfileEvery)
	}
	metrics := env.Metrics || rw != nil

	counts := map[dbi.Tool]func() int{}
	first := true
	attempt := func() harness.Setup {
		tl, count, _ := toolreg.Make(sp.Tool)
		counts[tl] = count
		in, _ := faultinject.ParseSpec(sp.Inject, sp.InjectSeed)
		var hooks *obs.Hooks
		if metrics || (first && (tr != nil || run.Profile != nil)) {
			hooks = &obs.Hooks{}
			if metrics {
				hooks.Metrics = obs.NewRegistry()
			}
			if first {
				hooks.Tracer, hooks.Prof = tr, run.Profile
			}
		}
		first = false
		return harness.Setup{
			Image: im, Tool: tl, Seed: sp.Seed, Threads: sp.Threads,
			Stdout: &bytes.Buffer{}, Obs: hooks, Inject: in,
			LenientMem: sp.Lenient, TStore: env.TStore,
			ReplayToken: run.Token,
			RunOpts: vm.RunOpts{
				MaxBlocks: sp.MaxBlocks, MaxInstrs: sp.MaxInstrs, Timeout: timeout,
				ProgressEvery: env.ProgressEvery, OnProgress: env.OnProgress,
			},
		}
	}
	if sp.Supervised {
		sup, err := harness.Supervise(ctx, attempt)
		if err != nil {
			rw.Abort()
			return run, err
		}
		run.Result, run.Inst = sup.Result, sup.Inst
		run.Reproduced, run.FellBack, run.Window = sup.Reproduced, sup.FellBack, sup.Window
		if sup.Err == nil && sup.Taxonomy == harness.TaxDivergence {
			// The oracle completed, but the configured engine departed from
			// the recorded timeline first: a finding, not a success.
			run.Verdict = harness.TaxDivergence
			run.Err = fmt.Sprintf("engine divergence in slice window [%d,%d] (journal-verified)",
				sup.Window[0], sup.Window[1])
		}
	} else {
		inst, err := harness.New(attempt())
		if err != nil {
			rw.Abort()
			return run, err
		}
		run.Inst, run.Result = inst, inst.RunCtx(ctx)
	}

	res, tl := run.Result, run.Inst.Core.Tool()
	count := counts[tl]
	switch {
	case res.Err != nil:
		run.Verdict, run.Err = harness.Classify(res.Err), res.Err.Error()
	case run.Verdict == "":
		run.Verdict, run.Reports = store.VerdictOK, count()
	}
	run.Stdout = run.Inst.M.Stdout.(*bytes.Buffer).String()
	if res.Err == nil {
		text, ok := toolreg.Render(tl)
		if !ok {
			text = fmt.Sprintf("== %d report(s)\n", count())
		}
		run.Report = text
	}
	if res.Crash != nil {
		run.Crash = res.Crash.Render(run.Inst.M.Image)
	}
	return run, run.finish(tr, rw)
}

// finish settles the run's observability: the tracer is closed (flushing
// still-open spans into its sinks), the surviving attempt's counters are
// captured, and a recorded run's block is completed and appended.
func (run *Execution) finish(tr *obs.Tracer, rw *store.RunWriter) error {
	var err error
	if tr != nil {
		err = tr.Close()
	}
	inst, res := run.Inst, run.Result
	if inst.Obs != nil {
		run.Metrics = inst.Obs.Metrics
	}
	inst.CaptureMetrics(run.Metrics)
	if rw == nil {
		return err
	}
	rw.SetWork(res.GuestInstrs, inst.M.BlocksExecuted, uint64(res.Wall))
	if tg, ok := inst.Core.Tool().(*core.Taskgrind); ok {
		for _, row := range store.RacesFromSet(&tg.Reports) {
			rw.AddRace(row)
		}
	}
	rw.SetCounters(run.Metrics.Snapshot().Counters)
	rw.SetReplayToken(run.Token)
	rw.SetDigest(run.Digest().Sum())
	rw.SetReproduced(run.Reproduced)
	rw.SetResult(run.Verdict, run.Reports, run.Err)
	sym := symbolizer(inst.M.Image)
	run.Profile.Each(func(pc, n uint64) { rw.Sample(pc, sym(pc), n) })
	return errors.Join(err, rw.Finish())
}

// Digest computes the run's digest from the surviving attempt.
func (run *Execution) Digest() harness.Digest {
	return run.Inst.Digest(run.Report, run.Stdout, run.Crash, run.Token)
}

// symbolizer names the image symbol holding a PC ("" outside any).
func symbolizer(im *guest.Image) func(pc uint64) string {
	return func(pc uint64) string {
		if sym := im.SymbolFor(pc); sym != nil {
			return sym.Name
		}
		return ""
	}
}
