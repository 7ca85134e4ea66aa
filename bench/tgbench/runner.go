package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
)

// job is one program execution under one tool: what the CLI, drbench,
// luleshbench and each daemon job do once.
type job struct {
	build   func() (*gbuild.Builder, error)
	tool    string // toolreg name
	threads int
	seed    uint64
	// render asks for the tool's report text (toolreg.Render).
	render bool
}

// result is what one execution produced.
type result struct {
	exit      uint64
	reports   int
	text      string
	instrs    uint64
	footprint uint64
}

// runStats accumulates one run's counters, read from the fields the
// program's packages export. Counts and times are summed over the run's
// executions; memory sizes are the largest single execution's.
type runStats struct {
	wall   time.Duration
	traced bool
	// probe is the time of the probe that followed the run, in ms.
	probe float64
	// rss is the process's resident set, sampled after the run.
	rss float64

	translateNs, compileNs                     uint64
	translations, chainHits, chainMisses       uint64
	dirtyCalls, accesses                       uint64
	cacheBytes                                 uint64
	instrs, blocks, slices, preempts, switches uint64
	tasks, steals, stealsOK                    uint64
	recorded, segments, pairs, conflicts       uint64
	shadowBytes                                uint64
	reports, reportBytes                       uint64
	footprint                                  uint64

	// toolTime is each tool's share of the run (traced pass only): the
	// span time of its executions, link to render.
	toolTime map[string]time.Duration
	// refWall and refFootprint describe the uninstrumented reference
	// execution a lulesh-s24 run is checked against.
	refWall      time.Duration
	refFootprint uint64
}

// runner executes jobs for one run, recording a span around every layer
// call when tracing and accumulating the run's counters.
type runner struct {
	tr    *tracer // nil: untraced
	id    int     // run id
	root  int     // span index of the run
	st    *runStats
	cache *tstore.Cache // translation store to attach; nil runs storeless
}

// exec runs one job through the program's public entry points: link the
// image, build the instance, run the guest, run the tool's analysis pass,
// and render the report.
func (r *runner) exec(j job) (result, error) {
	tr := r.tr
	first := tr.begin("gbuild.link", r.id, r.root)
	b, err := j.build()
	if err != nil {
		return result{}, err
	}
	im, err := b.Link()
	tr.end(first)
	if err != nil {
		return result{}, err
	}

	sp := tr.begin("harness.new", r.id, r.root)
	tool, count, err := toolreg.Make(j.tool)
	if err != nil {
		return result{}, err
	}
	inst, err := harness.New(harness.Setup{Image: im, Tool: tool, Seed: j.seed, Threads: j.threads, TStore: r.cache})
	tr.end(sp)
	if err != nil {
		return result{}, err
	}

	sp = tr.begin("vm.run", r.id, r.root)
	err = inst.M.RunOpts(inst.RunOpts)
	tr.end(sp)
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", j.tool, j.seed, err)
	}
	if tool != nil {
		sp = tr.begin("core.fini", r.id, r.root)
		tool.Fini(inst.Core)
		tr.end(sp)
	}
	res := result{exit: inst.M.ExitCode(), reports: count(), instrs: inst.M.InstrsExecuted, footprint: inst.M.Footprint()}
	if j.render {
		sp = tr.begin("report.render", r.id, r.root)
		res.text, _ = toolreg.Render(tool)
		tr.end(sp)
	}
	if tr != nil {
		if r.st.toolTime == nil {
			r.st.toolTime = map[string]time.Duration{}
		}
		r.st.toolTime[j.tool] += time.Since(tr.epoch) - tr.spans[first].start
	}

	st, c, m := r.st, inst.Core, inst.M
	st.translateNs += c.TranslateNanos
	st.compileNs += c.CompileNanos
	st.translations += c.Translations
	st.chainHits += c.ChainHits
	st.chainMisses += c.ChainMisses
	st.dirtyCalls += c.DirtyCalls
	st.accesses += c.AccessesDelivered
	st.cacheBytes = max(st.cacheBytes, c.CacheFootprint())
	st.instrs += m.InstrsExecuted
	st.blocks += m.BlocksExecuted
	st.slices += m.Slices
	st.preempts += m.Preemptions
	st.switches += m.Switches
	st.tasks += inst.OMP.TasksCreated
	st.steals += inst.OMP.StealsAttempted
	st.stealsOK += inst.OMP.StealsSuccessful
	if tg, ok := tool.(*core.Taskgrind); ok {
		st.recorded += tg.Stats.AccessesRecorded
		st.segments += uint64(tg.Stats.SegmentsCreated)
		st.pairs += tg.Stats.PairsChecked
		st.conflicts += uint64(tg.Stats.ConflictPairs)
		st.shadowBytes = max(st.shadowBytes, tg.ShadowFootprint())
	}
	st.reports += uint64(res.reports)
	st.reportBytes += uint64(len(res.text))
	st.footprint = max(st.footprint, res.footprint)
	return res, nil
}

// reference runs a job untraced, outside the run's counters: the oracle
// executions a check compares against.
func reference(j job) (result, error) {
	r := runner{st: &runStats{}}
	return r.exec(j)
}

// batch is a closed-loop workload: one client runs it back to back.
type batch interface {
	// run executes one measured run.
	run(r *runner, rng *rand.Rand) error
	// check verifies the last run's output against the pinned references,
	// outside the measured time of the run.
	check(r *runner) error
}

// pass runs w back to back for d (at least once), each run followed by a
// probe. Given a tracer, it traces every other run, so that traced and
// untraced runs sample the same stretch of time; runStats.traced tells them
// apart.
func pass(w batch, tr *tracer, p *prober, rng *rand.Rand, d time.Duration, cache *tstore.Cache) (runs []runStats, failed int) {
	minRuns := 1
	if tr != nil {
		minRuns = 2
	}
	start := time.Now()
	for len(runs) < minRuns || time.Since(start) < d {
		st := &runStats{traced: tr != nil && len(runs)%2 == 1}
		r := &runner{id: len(runs), st: st, cache: cache}
		if st.traced {
			r.tr = tr
		}
		r.root = r.tr.begin("run", r.id, -1)
		t0 := time.Now()
		err := w.run(r, rng)
		st.wall = time.Since(t0)
		r.tr.end(r.root)
		st.probe = p.run()
		if err == nil {
			err = w.check(r)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "tgbench: run %d failed: %v\n", r.id, err)
		}
		st.rss = residentMiB()
		runs = append(runs, *st)
	}
	return runs, failed
}
