package serve

// Per-job execution: each admitted job runs once on a worker, under its own
// cancellation context and wall budget, through explore.Execute — the run
// path the CLI and seed sweeps use. Failures are contained by the harness
// (supervised jobs additionally verify crashes by replay and degrade host
// panics to the IR oracle) and become the job's final result. Nothing is
// retried: a run is a pure function of its spec, so a second run would
// repeat the first's verdict, and a submitter who wants one anyway
// resubmits the replay token.

import (
	"context"
	"time"

	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/obs/store"
	"repro/internal/progs"
)

// progressEvery is the job progress-tick cadence in timeslices.
const progressEvery = 64

// runJob runs j on the calling worker and finalizes it.
func (s *Server) runJob(j *Job) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	now := time.Now()
	s.mu.Lock()
	if j.canceled {
		j.status = StatusCanceled
		j.finished = now
		s.canceledJobs.Add(1)
		s.mu.Unlock()
		return
	}
	j.started = now
	j.queueWait = now.Sub(j.submitted)
	for w := int64(j.queueWait); ; {
		cur := s.queueWaitMax.Load()
		if w <= cur || s.queueWaitMax.CompareAndSwap(cur, w) {
			break
		}
	}
	j.status = StatusRunning
	ctx, cancel := context.WithCancel(s.ctx)
	j.cancel = cancel
	s.mu.Unlock()

	s.running.Add(1)
	res := s.execute(ctx, j)
	cancel()
	s.running.Add(-1)

	s.finalize(j, res)
}

// finalize ends j on its one run's result: done, failed or canceled.
func (s *Server) finalize(j *Job, res JobResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	j.result = &res
	j.finished = time.Now()
	switch {
	case res.Verdict == harness.TaxCanceled || j.canceled:
		j.status = StatusCanceled
		s.canceledJobs.Add(1)
	case res.Verdict == store.VerdictOK:
		j.status = StatusDone
		s.completed.Add(1)
	default:
		j.status = StatusFailed
		s.quarantined.Add(1)
	}
}

// execute runs j under ctx, fully contained: every failure mode comes back
// as a classified JobResult, never as a panic or a daemon exit.
func (s *Server) execute(ctx context.Context, j *Job) JobResult {
	sp := j.Spec
	out := JobResult{ReplayToken: j.Token, Attempts: 1}
	b, err := progs.Build(sp.Prog, sp.Lulesh())
	if err != nil {
		return out.fail(err)
	}
	im, err := b.Link()
	if err != nil {
		return out.fail(err)
	}
	run, err := explore.Execute(ctx, im, sp, explore.Env{
		TStore: s.opts.TCache, Record: s.opts.Record, Timeout: s.opts.JobTimeout,
		ProgressEvery: progressEvery,
		OnProgress: func(blocks, instrs uint64) {
			j.progBlocks.Store(blocks)
			j.progInstrs.Store(instrs)
		},
	})
	if err != nil {
		return out.fail(err)
	}
	// Settle the live progress counters to the run's final numbers (a short
	// run can finish before its first progress tick).
	j.progBlocks.Store(run.Inst.M.BlocksExecuted)
	j.progInstrs.Store(run.Result.GuestInstrs)
	out.Verdict, out.Err, out.Reports, out.Crash = run.Verdict, run.Err, run.Reports, run.Crash
	out.Reproduced, out.FellBack = run.Reproduced, run.FellBack
	out.Digest = run.Digest().Sum()
	out.GuestInstrs = run.Result.GuestInstrs
	out.WallMS = float64(run.Result.Wall) / float64(time.Millisecond)
	if run.Verdict == store.VerdictOK {
		out.Output = run.Stdout + run.Report
	}
	return out
}

// fail classifies a job that could not run at all.
func (out JobResult) fail(err error) JobResult {
	out.Verdict, out.Err = harness.TaxError, err.Error()
	return out
}
