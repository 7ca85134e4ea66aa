package serve

// Per-job execution: each admitted job runs one attempt at a time on a
// worker, under its own cancellation context and wall budget. Failures are
// contained by the harness (supervised jobs additionally verify crashes by
// replay and degrade host panics to the IR oracle) and become the job's
// result; transient taxonomies re-enter the queue after backoff.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/progs"
	"repro/internal/tools/archer"
	"repro/internal/tools/memcheck"
	"repro/internal/tools/romp"
	"repro/internal/tools/toolreg"
	"repro/internal/vm"
)

// transient reports whether a failure taxonomy is worth retrying: a host
// panic or a watchdog trip can be load- or schedule-coupled, while a guest
// fault, deadlock or divergence is a deterministic property of the
// configuration — retrying those only burns workers.
func transient(tax string) bool {
	return tax == harness.TaxPanic || tax == harness.TaxTimeout
}

// maxRetriesFor resolves a job's retry budget (spec override, -1 disables).
func (s *Server) maxRetriesFor(j *Job) int {
	switch {
	case j.Spec.MaxRetries < 0:
		return 0
	case j.Spec.MaxRetries > 0:
		return j.Spec.MaxRetries
	}
	return s.opts.MaxRetries
}

// runJob executes one attempt of j on the calling worker and finalizes or
// schedules a retry.
func (s *Server) runJob(j *Job) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	now := time.Now()
	s.mu.Lock()
	if j.status.Terminal() {
		s.mu.Unlock()
		return
	}
	if j.canceled {
		j.status = StatusCanceled
		j.finished = now
		s.canceledJobs.Add(1)
		s.mu.Unlock()
		return
	}
	if j.started.IsZero() {
		j.started = now
		j.queueWait = now.Sub(j.submitted)
		for w := int64(j.queueWait); ; {
			cur := s.queueWaitMax.Load()
			if w <= cur || s.queueWaitMax.CompareAndSwap(cur, w) {
				break
			}
		}
	}
	j.status = StatusRunning
	j.attempts++
	ctx, cancel := context.WithCancel(s.ctx)
	j.cancel = cancel
	s.mu.Unlock()

	s.running.Add(1)
	res := s.runAttempt(ctx, j)
	cancel()
	s.running.Add(-1)

	s.finalize(j, res)
}

// finalize applies one attempt's result: terminal state, retry scheduling,
// schedule-sensitivity detection, counters.
func (s *Server) finalize(j *Job, res JobResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	res.Attempts = j.attempts
	j.taxSeen = append(j.taxSeen, res.Verdict)
	// A job whose attempts disagree is schedule-sensitive: the outcome
	// depends on something outside the replayable configuration, and the
	// replay token is the only stable currency for it.
	for _, t := range j.taxSeen {
		if t != j.taxSeen[0] {
			res.ScheduleSensitive = true
			break
		}
	}
	finish := func(st Status) {
		j.status = st
		j.result = &res
		j.finished = time.Now()
		if res.ScheduleSensitive {
			s.schedSens.Add(1)
		}
	}
	switch {
	case res.Verdict == harness.TaxCanceled || j.canceled:
		finish(StatusCanceled)
		s.canceledJobs.Add(1)
	case res.Verdict == store.VerdictOK:
		finish(StatusDone)
		s.completed.Add(1)
	case transient(res.Verdict) && j.attempts <= s.maxRetriesFor(j):
		if s.draining.Load() {
			// Retries do not outlive a drain: persist the job for the
			// next daemon instead of backing off into a stopping pool.
			s.parkLocked(j)
			return
		}
		j.status = StatusRetryWait
		j.result = &res // interim: visible while backing off
		s.retried.Add(1)
		d := s.backoffFor(j.attempts)
		s.retryWG.Add(1)
		j.retryStop = time.AfterFunc(d, func() {
			defer s.retryWG.Done()
			s.requeue(j)
		})
	default:
		finish(StatusFailed)
		s.quarantined.Add(1)
	}
}

// requeue returns a backed-off job to the queue (or parks/cancels it if the
// world changed during the wait).
func (s *Server) requeue(j *Job) {
	s.mu.Lock()
	j.retryStop = nil
	if j.status.Terminal() {
		s.mu.Unlock()
		return
	}
	if j.canceled {
		j.status = StatusCanceled
		j.finished = time.Now()
		s.canceledJobs.Add(1)
		s.mu.Unlock()
		return
	}
	if s.draining.Load() {
		s.parkLocked(j)
		s.mu.Unlock()
		return
	}
	j.status = StatusQueued
	s.mu.Unlock()
	s.retriesBusy.Add(1)
	defer s.retriesBusy.Add(-1)
	select {
	case s.queue <- j:
	case <-s.ctx.Done():
		s.mu.Lock()
		s.parkLocked(j)
		s.mu.Unlock()
	}
}

// runRecord is an optional per-job run-store recording (Options.Record).
type runRecord struct {
	rw  *store.RunWriter
	reg *obs.Registry
}

func (rr *runRecord) abort() {
	if rr != nil {
		rr.rw.Abort()
	}
}

// finish completes the recorded run with the surviving attempt's state.
func (rr *runRecord) finish(inst *harness.Instance, res harness.Result, out JobResult) {
	if rr == nil {
		return
	}
	if inst != nil {
		inst.CaptureMetrics(rr.reg)
		rr.rw.SetWork(res.GuestInstrs, inst.M.BlocksExecuted, uint64(res.Wall))
		if tg, ok := inst.Core.Tool().(*core.Taskgrind); ok {
			for _, row := range store.RacesFromSet(&tg.Reports) {
				rr.rw.AddRace(row)
			}
		}
	}
	rr.rw.SetCounters(rr.reg.Snapshot().Counters)
	rr.rw.SetReplayToken(out.ReplayToken)
	rr.rw.SetReproduced(out.Reproduced)
	rr.rw.SetResult(out.Verdict, out.Reports, out.Err)
	_ = rr.rw.Finish()
}

// runAttempt executes one attempt of j under ctx, fully contained: every
// failure mode comes back as a classified JobResult, never as a panic or a
// daemon exit.
func (s *Server) runAttempt(ctx context.Context, j *Job) JobResult {
	sp := j.Spec
	out := JobResult{ReplayToken: j.Token}
	fail := func(tax string, err error) JobResult {
		out.Verdict = tax
		out.Err = err.Error()
		return out
	}
	timeout := time.Duration(sp.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.opts.JobTimeout
	}
	b, err := progs.Build(sp.Prog, sp.Lulesh())
	if err != nil {
		return fail(harness.TaxError, err)
	}
	im, err := b.Link()
	if err != nil {
		return fail(harness.TaxError, err)
	}
	var rr *runRecord
	if s.opts.Record != nil {
		rr = &runRecord{reg: obs.NewRegistry()}
		rr.rw = s.opts.Record.Begin(store.RunHeader{
			Prog: sp.Prog, Tool: sp.Tool, Engine: sp.Engine,
			Seed: sp.Seed, Threads: sp.Threads,
		})
	}

	// The attempt factory: fresh tool, injector and output buffer per
	// (re-)execution, mirroring the CLI's makeSetup — supervised runs may
	// build record, replay and fallback instances from it. Only the first
	// build attaches the recording registry, so replays don't double-count.
	outBuf := &bytes.Buffer{}
	var countFn func() int
	builds := 0
	factory := func() harness.Setup {
		tl, count, _ := toolreg.Make(sp.Tool)
		countFn = count
		inj, _ := faultinject.ParseSpec(sp.Inject, sp.InjectSeed)
		outBuf.Reset()
		st := harness.Setup{
			Image: im, Tool: tl, Seed: sp.Seed, Threads: sp.Threads,
			Stdout: outBuf, Inject: inj, LenientMem: sp.Lenient,
			Engine: sp.Engine, TStore: s.opts.TCache,
			RunOpts: vm.RunOpts{
				MaxBlocks: sp.MaxBlocks, MaxInstrs: sp.MaxInstrs, Timeout: timeout,
				ProgressEvery: s.opts.ProgressEvery,
				OnProgress: func(blocks, instrs uint64) {
					j.progBlocks.Store(blocks)
					j.progInstrs.Store(instrs)
				},
			},
		}
		if rr != nil && builds == 0 {
			st.Obs = &obs.Hooks{Metrics: rr.reg}
		}
		builds++
		return st
	}

	var res harness.Result
	var inst *harness.Instance
	if sp.Supervised {
		sup, serr := harness.SuperviseCtx(ctx, factory, harness.SuperviseOpts{
			OnPanic: harness.OnPanicFallback, VerifyCrash: true, Token: j.Token,
		})
		if serr != nil {
			rr.abort()
			return fail(harness.TaxError, serr)
		}
		res, inst = sup.Result, sup.Inst
		out.Reproduced, out.FellBack = sup.Reproduced, sup.FellBack
		switch {
		case res.Err != nil:
			out.Verdict = sup.Taxonomy
		case sup.Taxonomy == harness.TaxDivergence:
			// The run completed under the oracle, but the configured engine
			// departed from the recorded timeline first: that is a finding,
			// not a success.
			out.Verdict = harness.TaxDivergence
			out.Err = fmt.Sprintf("engine divergence in slice window [%d,%d] (journal-verified)",
				sup.Window[0], sup.Window[1])
		default:
			out.Verdict = store.VerdictOK
		}
	} else {
		inst, err = harness.New(factory())
		if err != nil {
			rr.abort()
			return fail(harness.TaxError, err)
		}
		res = inst.RunCtx(ctx)
		if res.Err != nil {
			out.Verdict = harness.Classify(res.Err)
		} else {
			out.Verdict = store.VerdictOK
		}
	}

	// Settle the live progress counters to the attempt's final numbers (a
	// short run can finish before its first ProgressEvery tick).
	j.progBlocks.Store(inst.M.BlocksExecuted)
	j.progInstrs.Store(res.GuestInstrs)
	out.GuestInstrs = res.GuestInstrs
	out.WallMS = float64(res.Wall) / float64(time.Millisecond)
	if res.Err != nil && out.Err == "" {
		out.Err = res.Err.Error()
	}
	if res.Crash != nil {
		out.Crash = res.Crash.Render(inst.M.Image)
	}
	if out.Verdict == store.VerdictOK {
		out.Reports = countFn()
		out.Output = outBuf.String() + renderReports(inst.Core.Tool(), out.Reports)
	}
	rr.finish(inst, res, out)
	return out
}

// renderReports renders a surviving tool's findings — the same per-tool
// switch the CLI prints, so a job's Output matches the equivalent
// `taskgrind` invocation.
func renderReports(tl dbi.Tool, count int) string {
	switch tt := tl.(type) {
	case *core.Taskgrind:
		if tt.Opt.IgnoreMutexinoutsetDeps { // the ROMP configuration
			return romp.Format(&tt.Reports)
		}
		return tt.Reports.String()
	case *archer.Archer:
		return tt.String()
	case *memcheck.Memcheck:
		return tt.String()
	}
	return fmt.Sprintf("== %d report(s)\n", count)
}
