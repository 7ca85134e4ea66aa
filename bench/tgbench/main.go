// Command tgbench is the repository benchmark. It runs one of four
// workloads drawn from the paper's evaluation, checks every output against
// pinned references, and prints the end-to-end metrics — or, with -trace 1,
// the per-layer metrics of a traced pass — by name and unit, ending with
// one JSON line:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"setup_s": {"value": 0.21, "unit": "s"}, ...}}
//
// Usage, from the repository root (bench/run.sh builds it first):
//
//	tgbench -workload table1 -seed 1 -seconds 25 -trace 0
//	tgbench -workload all -seed 1 -trace 1   # every workload, one process each
//	tgbench -workload all -sets 2            # repeatability against the bounds
//
// Layers are timed from outside: the benchmark records a span around each
// call it makes into the program and reads the counters the program's
// packages export. Times are scaled to a reference machine speed measured
// by a probe (probe.go). See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/tstore"
)

var workloads = []string{"table1", "lulesh-s24", "lulesh-tasks", "serve-mix"}

type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         int
	setups, sets  int
	expected, out string
}

func main() {
	// One P: a run is one goroutine (serve-mix: one worker and a client
	// that sleeps), so the garbage collector works on the run's CPU rather
	// than on a second one whose speed the probe does not see.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("tgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured time per workload")
	fs.IntVar(&o.trace, "trace", 0, "1: run the traced pass and print per-layer metrics (with all: run it after the untraced pass)")
	fs.IntVar(&o.setups, "setups", 9, "set-ups per process; setup_s is their median")
	fs.IntVar(&o.sets, "sets", 1, "with -workload all: run every workload this many times and compare the sets")
	fs.StringVar(&o.expected, "expected", "bench/expected", "directory of pinned reference outputs")
	fs.StringVar(&o.out, "out", "bench/out", "directory for the traced pass's Chrome traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "tgbench: -trace takes 0 or 1")
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	total0, steal0 := cpuTimes()
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "tgbench:", err)
		return 1
	}
	total1, steal1 := cpuTimes()
	rep.note("cpu steal %.1f%% of machine time (CPUs given to other guests)",
		100*ratio(steal1-steal0, total1-total0))
	if err := rep.write(stdout, o); err != nil {
		fmt.Fprintln(stderr, "tgbench:", err)
		return 1
	}
	return 0
}

type metric struct {
	name, unit string
	value      float64
}

type metricSet []metric

func (m *metricSet) add(name, unit string, v float64) { *m = append(*m, metric{name, unit, v}) }

// report is one workload's result.
type report struct {
	// attempted counts runs; failed counts those that erred or whose
	// output differs from its reference.
	attempted, failed int
	metrics           metricSet // end-to-end, or per-layer with -trace 1
	diag              []string  // printed above the JSON line only
}

func (rep *report) tally(runs []runStats, failed int) {
	rep.attempted += len(runs)
	rep.failed += failed
}

func (rep *report) note(format string, args ...any) {
	rep.diag = append(rep.diag, fmt.Sprintf(format, args...))
}

func (rep report) write(w io.Writer, o options) error {
	fmt.Fprintf(w, "tgbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d NumCPU=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]jsonMetric{}}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			// JSON has no infinities; a metric that is not a number is a
			// failed measurement.
			out.Correct = false
			m.value = -1
		}
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	for _, d := range rep.diag {
		fmt.Fprintf(w, "  # %s\n", d)
	}
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d\n", out.Correct, out.Attempted, out.Failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func newWorkload(o options) (batch, error) {
	switch o.workload {
	case "table1":
		return newTable1(o.expected)
	case "lulesh-s24", "lulesh-tasks":
		return newLulesh(o.expected, o.workload)
	case "serve-mix":
		return newMix()
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", o.workload, strings.Join(workloads, ", "))
}

func runWorkload(o options) (report, error) {
	var rep report
	dur := time.Duration(o.seconds * float64(time.Second))
	p := newProber()
	// Set-up constructs the workload and makes one warm-up run, so the
	// runtime's heap and lazy initialization settle before timing. Checking
	// the warm-up run's output is the benchmark's work, not set-up.
	warm := rand.New(rand.NewPCG(o.seed, 1))
	var (
		w              batch
		setups, probes []float64
	)
	for range max(o.setups, 1) {
		start := time.Now()
		var err error
		if w, err = newWorkload(o); err != nil {
			return rep, err
		}
		built := time.Since(start)
		runs, failed := pass(w, nil, p, warm, 0, nil)
		rep.tally(runs, failed)
		setups = append(setups, (built + runs[0].wall).Seconds())
		probes = append(probes, runs[0].probe)
	}
	rng := rand.New(rand.NewPCG(o.seed, 2))
	if o.trace == 0 {
		runs, failed := pass(w, nil, p, rng, dur, nil)
		rep.tally(runs, failed)
		sp := speedOf(append(probes, probesOf(runs)...))
		var footprint uint64
		rss := make([]float64, len(runs))
		for i, st := range runs {
			footprint = max(footprint, st.footprint)
			rss[i] = st.rss
		}
		rep.endToEnd(sp, setups, walls(runs), footprint, median(rss))
		if o.workload == "lulesh-s24" {
			rep.note("lulesh.ref_run_p50_ms %.4f ms (the same runs under no tool)", sp.scale(median(refWalls(runs))))
		}
		return rep, nil
	}

	tr := newTracer()
	var (
		x     extra
		cache *tstore.Cache // serve-mix's replay uses the warm store
	)
	if m, ok := w.(*mix); ok {
		// The served half of the pass: how the daemon's jobs queue and how
		// the shared store answers them. The traced half replays the same
		// mix on this goroutine, where each layer call can be timed.
		m.record = true
		c0 := m.cache.Stats()
		runs, failed := pass(m, nil, p, rng, dur/2, nil)
		c1 := m.cache.Stats()
		rep.tally(runs, failed)
		probes = append(probes, probesOf(runs)...)
		x = m.extra(tr, c0, c1)
		w, cache, dur = &replay{m: m}, m.cache, dur-dur/2
	}
	g0 := readGo()
	runs, failed := pass(w, tr, p, rng, dur, cache)
	g1 := readGo()
	rep.tally(runs, failed)
	sp := speedOf(append(probes, probesOf(runs)...))
	untraced, traced := split(runs)
	if o.workload == "lulesh-s24" {
		var tg, ref uint64
		for _, st := range untraced {
			tg, ref = max(tg, st.footprint), max(ref, st.refFootprint)
		}
		x.overheadX = median(walls(untraced)) / median(refWalls(untraced))
		x.memOverheadX = ratio(float64(tg), float64(ref))
	}
	rep.metrics = layerMetrics(tr, sp, traced, untraced, x, g0, g1, len(runs))
	if o.workload == "table1" {
		for _, tool := range table1Tools {
			col := make([]float64, len(traced))
			for k, st := range traced {
				col[k] = ms(st.toolTime[tool])
			}
			rep.note("table1.col_%s_ms %.4f ms (median per run)", tool, sp.scale(median(col)))
		}
	}
	return rep, writeTrace(tr, o, &rep)
}

// endToEnd adds the metrics every workload reports with tracing off. Times
// are scaled to the reference speed; the measured ones are noted.
func (rep *report) endToEnd(sp speed, setups, walls []float64, footprint uint64, rss float64) {
	rep.metrics.add("setup_s", "s", sp.scale(median(setups)))
	rep.metrics.add("run_p50_ms", "ms", sp.scale(median(walls)))
	rep.metrics.add("footprint_mib", "MiB", mib(footprint))
	rep.metrics.add("rss_mib", "MiB", rss)
	rep.note("run p90 %.4f ms at the reference speed; %d runs, %d set-ups", sp.scale(quantile(walls, 0.9)), len(walls), len(setups))
	rep.note("measured: set-up %.4f s, run p50 %.4f ms, p90 %.4f ms; machine speed %.3f of the reference",
		median(setups), median(walls), quantile(walls, 0.9), float64(sp))
}

func writeTrace(tr *tracer, o options, rep *report) error {
	path := filepath.Join(o.out, o.workload+".trace.json")
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	rep.note("trace: %d spans in %s", len(tr.spans), path)
	return nil
}

// split separates a traced pass's untraced runs from its traced ones.
func split(runs []runStats) (untraced, traced []runStats) {
	for _, st := range runs {
		if st.traced {
			traced = append(traced, st)
		} else {
			untraced = append(untraced, st)
		}
	}
	return untraced, traced
}

func walls(runs []runStats) []float64 {
	out := make([]float64, len(runs))
	for i, st := range runs {
		out[i] = ms(st.wall)
	}
	return out
}

func refWalls(runs []runStats) []float64 {
	out := make([]float64, len(runs))
	for i, st := range runs {
		out[i] = ms(st.refWall)
	}
	return out
}

func probesOf(runs []runStats) []float64 {
	out := make([]float64, len(runs))
	for i, st := range runs {
		out[i] = st.probe
	}
	return out
}

// extra holds the per-layer metrics only some workloads exercise; they
// stay 0 on the others.
type extra struct {
	overheadX, memOverheadX     float64 // lulesh-s24
	tstoreHitRatio, tstoreUnits float64 // serve-mix
	queueFrac, retried          float64
}

// layerMetrics derives the per-layer metrics: layer self times from the
// traced pass's spans, counts from each traced run's counters, each the
// median over runs. Times are scaled to the reference speed.
func layerMetrics(tr *tracer, sp speed, traced, untraced []runStats, x extra, g0, g1 goSample, goRuns int) metricSet {
	runWalls, self := tr.selfTimes("run")
	per := func(f func(k int, st runStats) float64) float64 {
		xs := make([]float64, len(traced))
		for k, st := range traced {
			xs[k] = f(k, st)
		}
		return median(xs)
	}
	layer := func(name string) float64 {
		return sp.scale(per(func(k int, _ runStats) float64 { return ms(self[k][name]) }))
	}
	count := func(f func(st runStats) uint64) float64 {
		return per(func(_ int, st runStats) float64 { return float64(f(st)) })
	}
	execMs := func(k int, st runStats) float64 {
		return ms(self[k]["vm.run"]) - float64(st.translateNs+st.compileNs)/1e6
	}
	share := func(ns func(st runStats) uint64) float64 {
		return per(func(_ int, st runStats) float64 { return ratio(float64(ns(st)), float64(st.wall)) })
	}

	var m metricSet
	m.add("gbuild.link_ms", "ms", layer("gbuild.link"))
	m.add("harness.new_ms", "ms", layer("harness.new"))
	m.add("vm.exec_ms", "ms", sp.scale(per(execMs)))
	m.add("core.fini_ms", "ms", layer("core.fini"))
	m.add("report.render_ms", "ms", layer("report.render"))
	m.add("dbi.translate_frac", "ratio", share(func(st runStats) uint64 { return st.translateNs }))
	m.add("dbi.compile_frac", "ratio", share(func(st runStats) uint64 { return st.compileNs }))
	m.add("dbi.translations", "count", count(func(st runStats) uint64 { return st.translations }))
	m.add("dbi.chain_hit_ratio", "ratio", per(func(_ int, st runStats) float64 {
		return ratio(float64(st.chainHits), float64(st.chainHits+st.chainMisses))
	}))
	m.add("dbi.cache_footprint_mib", "MiB", per(func(_ int, st runStats) float64 { return mib(st.cacheBytes) }))
	m.add("dbi.dirty_calls", "count", count(func(st runStats) uint64 { return st.dirtyCalls }))
	m.add("dbi.accesses_per_dirty_call", "ratio", per(func(_ int, st runStats) float64 {
		return ratio(float64(st.accesses), float64(st.dirtyCalls))
	}))
	m.add("vm.exec_minstr_per_s", "Minstr/s", per(func(k int, st runStats) float64 {
		return ratio(float64(st.instrs)/1e6, sp.scale(execMs(k, st))/1e3)
	}))
	m.add("vm.instrs", "count", count(func(st runStats) uint64 { return st.instrs }))
	m.add("vm.blocks", "count", count(func(st runStats) uint64 { return st.blocks }))
	m.add("vm.slices", "count", count(func(st runStats) uint64 { return st.slices }))
	m.add("vm.preemptions", "count", count(func(st runStats) uint64 { return st.preempts }))
	m.add("vm.switches", "count", count(func(st runStats) uint64 { return st.switches }))
	m.add("omp.tasks_created", "count", count(func(st runStats) uint64 { return st.tasks }))
	m.add("omp.steal_success_ratio", "ratio", per(func(_ int, st runStats) float64 {
		return ratio(float64(st.stealsOK), float64(st.steals))
	}))
	m.add("core.accesses_recorded", "count", count(func(st runStats) uint64 { return st.recorded }))
	m.add("core.shadow_mib", "MiB", per(func(_ int, st runStats) float64 { return mib(st.shadowBytes) }))
	m.add("core.segments", "count", count(func(st runStats) uint64 { return st.segments }))
	m.add("core.pairs_checked", "count", count(func(st runStats) uint64 { return st.pairs }))
	m.add("core.conflict_pairs", "count", count(func(st runStats) uint64 { return st.conflicts }))
	m.add("core.reports", "count", count(func(st runStats) uint64 { return st.reports }))
	m.add("report.bytes", "bytes", count(func(st runStats) uint64 { return st.reportBytes }))
	m.add("lulesh.overhead_x", "ratio", x.overheadX)
	m.add("lulesh.mem_overhead_x", "ratio", x.memOverheadX)
	m.add("tstore.hit_ratio", "ratio", x.tstoreHitRatio)
	m.add("tstore.units", "count", x.tstoreUnits)
	m.add("serve.queue_frac", "ratio", x.queueFrac)
	m.add("serve.retried", "count", x.retried)
	goMetrics(&m, g0, g1, goRuns)
	m.add("bench.trace_overhead_frac", "ratio", median(walls(traced))/median(walls(untraced))-1)
	m.add("bench.layer_sum_err_frac", "ratio", per(func(k int, _ runStats) float64 {
		var sum time.Duration
		for _, l := range layers {
			sum += self[k][l]
		}
		return math.Abs(float64(sum-runWalls[k])) / float64(runWalls[k])
	}))
	return m
}

// runAll runs every workload in its own process, -sets times, and prints
// one table; with -sets 2 or more it compares each metric across sets.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "tgbench:", err)
		return 1
	}
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil && o.sets > 1 {
		fmt.Fprintln(stderr, "tgbench:", err)
		return 1
	}
	modes := []int{0}
	if o.trace == 1 {
		modes = append(modes, 1)
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[key]string{}
	var order []key
	status := 0
	for set := range max(o.sets, 1) {
		for _, w := range workloads {
			for _, mode := range modes {
				args := []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
					"-trace", fmt.Sprint(mode), "-setups", fmt.Sprint(o.setups),
					"-expected", o.expected, "-out", o.out}
				var res resultLine
				cmd := exec.Command(exe, args...)
				cmd.Stderr = stderr
				out, err := cmd.Output()
				if err == nil {
					err = json.Unmarshal(lastLine(out), &res)
				}
				if err != nil {
					fmt.Fprintf(stderr, "tgbench: %s (set %d, trace %d) failed: %v\n", w, set+1, mode, err)
					status = 1
					continue
				}
				fmt.Fprintf(stdout, "%s set %d trace %d: correct=%t attempted=%d failed=%d\n",
					w, set+1, mode, res.Correct, res.Attempted, res.Failed)
				if !res.Correct {
					status = 1
				}
				names := make([]string, 0, len(res.Metrics))
				for name := range res.Metrics {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					k := key{w, name}
					if _, seen := units[k]; !seen {
						order = append(order, k)
						units[k] = res.Metrics[name].Unit
					}
					values[k] = append(values[k], res.Metrics[name].Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-13s %-28s %-9s %s\n", "workload", "metric", "unit", "value per set [diff vs bound]")
	for _, k := range order {
		vs := values[k]
		line := fmt.Sprintf("%-13s %-28s %-9s", k.workload, k.metric, units[k])
		for _, v := range vs {
			line += fmt.Sprintf(" %12.6g", v)
		}
		if len(vs) > 1 && vs[0] != 0 {
			diff := math.Abs(vs[len(vs)-1]-vs[0]) / math.Abs(vs[0])
			if bound, ok := bounds[k.metric]; ok {
				verdict := "ok"
				if diff > bound {
					verdict = "OVER"
					status = 1
				}
				line += fmt.Sprintf("  [%.1f%% vs %.1f%% %s]", 100*diff, 100*bound, verdict)
			} else {
				line += fmt.Sprintf("  [%.1f%%]", 100*diff)
			}
		}
		fmt.Fprintln(stdout, line)
	}
	return status
}

// resultLine is the JSON line a workload process prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(out []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return []byte(lines[len(lines)-1])
}

// loadBounds reads each end-to-end metric's regression bound from the
// benchmark definition.
func loadBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
