package serve

// Per-job execution: each admitted job runs one attempt at a time on a
// worker, under its own cancellation context and wall budget, through
// explore.Execute — the run path the CLI and seed sweeps use. Failures are
// contained by the harness (supervised jobs additionally verify crashes by
// replay and degrade host panics to the IR oracle) and become the job's
// result; transient taxonomies re-enter the queue after backoff.

import (
	"context"
	"time"

	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/obs/store"
	"repro/internal/progs"
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
	// Claim the queue slot under s.mu, so Submit never counts it free:
	// Submit sends while holding s.mu, and a send that found its slot
	// taken would block with the lock every worker needs.
	s.retriesBusy.Add(1)
	s.mu.Unlock()
	defer s.retriesBusy.Add(-1)
	select {
	case s.queue <- j:
	case <-s.ctx.Done():
		s.mu.Lock()
		s.parkLocked(j)
		s.mu.Unlock()
	}
}

// runAttempt executes one attempt of j under ctx, fully contained: every
// failure mode comes back as a classified JobResult, never as a panic or a
// daemon exit.
func (s *Server) runAttempt(ctx context.Context, j *Job) JobResult {
	sp := j.Spec
	out := JobResult{ReplayToken: j.Token}
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
		ProgressEvery: s.opts.ProgressEvery,
		OnProgress: func(blocks, instrs uint64) {
			j.progBlocks.Store(blocks)
			j.progInstrs.Store(instrs)
		},
	})
	if err != nil {
		return out.fail(err)
	}
	// Settle the live progress counters to the attempt's final numbers (a
	// short run can finish before its first ProgressEvery tick).
	j.progBlocks.Store(run.Inst.M.BlocksExecuted)
	j.progInstrs.Store(run.Result.GuestInstrs)
	out.Verdict, out.Err, out.Reports, out.Crash = run.Verdict, run.Err, run.Reports, run.Crash
	out.Reproduced, out.FellBack = run.Reproduced, run.FellBack
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
