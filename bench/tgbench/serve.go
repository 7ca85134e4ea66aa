package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/progs"
	"repro/internal/serve"
	"repro/internal/tstore"
)

const (
	// mixWorkers is the daemon's worker pool: one, on the process's one P.
	// The client that submits and waits mostly sleeps.
	mixWorkers = 1
	// batchJobs is one run: the jobs the client submits at once and waits
	// for, within the daemon's default queue depth of 64.
	batchJobs = 48
)

// mix is the serve-mix workload: one client submits a batch of analysis
// jobs to an in-process serve.Server and waits for all of them, batch after
// batch. Each batch gets a fresh server with one worker, sharing one warm
// in-memory translation cache. 70% of the jobs are Table I programs under
// Taskgrind and lock-suite programs under lockgrind, 20% task.c and 10%
// LULESH at the job-spec defaults, on scheduler seeds 1-8.
type mix struct {
	progs []serve.JobSpec // the Table I and lock-suite share of the mix
	cache *tstore.Cache
	// refs memoizes the cold storeless reference run of each job spec.
	refs map[serve.JobSpec]result

	batch []serve.JobSpec // the last run's jobs
	views []serve.JobView // and how each ended
	// record keeps every served job's view in served, for the traced pass.
	record bool
	served []servedJob
}

// servedJob is one job a batch served, with the run it belonged to.
type servedJob struct {
	run  int
	view serve.JobView
}

// newMix builds the translation cache and warms it with one job per
// program of the mix, through a server, as a daemon's first jobs would.
func newMix() (*mix, error) {
	m := &mix{refs: map[serve.JobSpec]result{}, cache: tstore.NewCache("")}
	for _, b := range drb.All() {
		m.progs = append(m.progs, serve.JobSpec{Prog: b.Name, Tool: "taskgrind"})
	}
	for _, b := range drb.LockSuite() {
		m.progs = append(m.progs, serve.JobSpec{Prog: b.Name, Tool: "lockgrind"})
	}
	warm := slices.Concat(m.progs, []serve.JobSpec{{Prog: "task.c"}, {Prog: "lulesh"}})
	for i := range warm {
		warm[i].Normalize()
	}
	views, err := m.serve(warm)
	if err != nil {
		return nil, err
	}
	for _, v := range views {
		if v.Status != serve.StatusDone {
			return nil, fmt.Errorf("warm-up job %s (%s) ended %s", v.ID, v.Spec.Prog, v.Status)
		}
	}
	return m, nil
}

func (m *mix) draw(rng *rand.Rand) serve.JobSpec {
	var sp serve.JobSpec
	switch x := rng.Float64(); {
	case x < 0.7:
		sp = m.progs[rng.IntN(len(m.progs))]
	case x < 0.9:
		sp = serve.JobSpec{Prog: "task.c", Tool: "taskgrind"}
	default:
		sp = serve.JobSpec{Prog: "lulesh", Tool: "taskgrind"}
	}
	sp.Seed = luleshSeeds[rng.IntN(len(luleshSeeds))]
	sp.Normalize()
	return sp
}

// serve runs the specs on a fresh server over the shared cache and returns
// each job's final view, in order.
func (m *mix) serve(specs []serve.JobSpec) ([]serve.JobView, error) {
	srv := serve.New(serve.Options{Workers: mixWorkers, TCache: m.cache})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Stop()
	ids := make([]string, len(specs))
	for i, sp := range specs {
		jobs, err := srv.Submit(sp)
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", sp.Prog, err)
		}
		ids[i] = jobs[0].ID
	}
	deadline := time.Now().Add(60 * time.Second)
	views := make([]serve.JobView, len(ids))
	for i, id := range ids {
		for {
			v, err := srv.Job(id)
			if err != nil {
				return nil, err
			}
			if v.Status.Terminal() {
				views[i] = v
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("job %s (%s) still %s after 60s", id, specs[i].Prog, v.Status)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return views, nil
}

func (m *mix) run(r *runner, rng *rand.Rand) error {
	m.batch = m.batch[:0]
	for range batchJobs {
		m.batch = append(m.batch, m.draw(rng))
	}
	var err error
	if m.views, err = m.serve(m.batch); err != nil {
		return err
	}
	if m.record {
		for _, v := range m.views {
			m.served = append(m.served, servedJob{r.id, v})
		}
	}
	return nil
}

// servedTrack offsets served batches' track ids in the Chrome trace past
// the replayed runs'.
const servedTrack = 1_000_000

// extra adds the recorded jobs' spans to the trace, taken from their
// JobView timestamps, and derives the daemon and store metrics of the
// served batches: the share of job time spent queued, retries per batch,
// and the store's hit ratio and size between the cache readings c0 and c1.
func (m *mix) extra(tr *tracer, c0, c1 tstore.CacheStats) extra {
	var queued, total, retried float64
	batches := map[int]bool{}
	for _, j := range m.served {
		v := j.view
		batches[j.run] = true
		if v.Started == nil || v.Finished == nil {
			continue
		}
		root := tr.add("job", servedTrack+j.run, -1, v.Submitted, *v.Finished)
		tr.add("serve.queue", servedTrack+j.run, root, v.Submitted, *v.Started)
		tr.add("serve.service", servedTrack+j.run, root, *v.Started, *v.Finished)
		queued += ms(v.Started.Sub(v.Submitted))
		total += ms(v.Finished.Sub(v.Submitted))
		if v.Result != nil {
			retried += float64(v.Result.Attempts - 1)
		}
	}
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	return extra{
		tstoreHitRatio: ratio(float64(hits), float64(hits+misses)),
		tstoreUnits:    float64(c1.Units),
		queueFrac:      ratio(queued, total),
		retried:        ratio(retried, float64(len(batches))),
	}
}

// check compares every served job with the cold storeless reference run of
// its spec: a warm-store adoption bug shows as a different report or
// instruction count. It also pins the batch's largest footprint, which the
// daemon does not report, to its reference's.
func (m *mix) check(r *runner) error {
	for i, v := range m.views {
		ref, err := m.ref(m.batch[i])
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", m.batch[i].Prog, err)
		}
		r.st.footprint = max(r.st.footprint, ref.footprint)
		switch {
		case v.Status != serve.StatusDone || v.Result == nil:
			return fmt.Errorf("job %s (%s seed %d) ended %s", v.ID, v.Spec.Prog, v.Spec.Seed, v.Status)
		case v.Result.Reports != ref.reports || v.Result.GuestInstrs != ref.instrs:
			return fmt.Errorf("job %s (%s seed %d): %d reports and %d instructions, reference %d and %d",
				v.ID, v.Spec.Prog, v.Spec.Seed, v.Result.Reports, v.Result.GuestInstrs, ref.reports, ref.instrs)
		}
	}
	return nil
}

func specJob(sp serve.JobSpec) job {
	return job{build: func() (*gbuild.Builder, error) { return progs.Build(sp.Prog, sp.Lulesh()) },
		tool: sp.Tool, threads: sp.Threads, seed: sp.Seed, render: true}
}

// ref returns the cold storeless reference run of a job spec.
func (m *mix) ref(sp serve.JobSpec) (result, error) {
	if res, ok := m.refs[sp]; ok {
		return res, nil
	}
	res, err := reference(specJob(sp))
	if err == nil {
		m.refs[sp] = res
	}
	return res, err
}

// replay runs a batch of the mix's jobs on the benchmark's own goroutine
// through the calls a daemon worker makes, against the warm translation
// cache: the traced pass's view of one job's layers.
type replay struct {
	m     *mix
	specs []serve.JobSpec
	res   []result
}

func (p *replay) run(r *runner, rng *rand.Rand) error {
	p.specs, p.res = p.specs[:0], p.res[:0]
	for range batchJobs {
		sp := p.m.draw(rng)
		res, err := r.exec(specJob(sp))
		if err != nil {
			return err
		}
		p.specs, p.res = append(p.specs, sp), append(p.res, res)
	}
	return nil
}

func (p *replay) check(*runner) error {
	for i, sp := range p.specs {
		ref, err := p.m.ref(sp)
		if err != nil {
			return err
		}
		if got := p.res[i]; got.reports != ref.reports || got.instrs != ref.instrs {
			return fmt.Errorf("%s seed %d: %d reports and %d instructions, reference %d and %d",
				sp.Prog, sp.Seed, got.reports, got.instrs, ref.reports, ref.instrs)
		}
	}
	return nil
}
