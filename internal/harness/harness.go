// Package harness wires a guest program image together with the host C
// library, the OpenMP runtime, the DBI core and an optional analysis tool —
// the equivalent of launching `valgrind --tool=X ./a.out` in the paper's
// setup.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/dbi/hostlib"
	"repro/internal/faultinject"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/snapshot"
	"repro/internal/tstore"
	"repro/internal/vm"
)

// Setup configures an instance.
type Setup struct {
	// Image is the program to run.
	Image *guest.Image
	// Tool is the DBI tool plugin (nil runs uninstrumented — the
	// "no tools" reference of the evaluation).
	Tool dbi.Tool
	// Seed drives the deterministic scheduler.
	Seed uint64
	// Threads caps OpenMP team sizes (OMP_NUM_THREADS; default 4).
	Threads int
	// Stdout receives guest output.
	Stdout io.Writer
	// Slice is the scheduler timeslice in basic blocks (default 3 —
	// small enough that microbenchmark-sized programs interleave).
	Slice int
	// ExtraHost registers additional host functions (runtimes under test).
	ExtraHost func(reg *vm.HostRegistry, inst *Instance)
	// Obs attaches the observability layer (metrics/tracing/profiling).
	// Nil keeps every hook site on its fast no-op path.
	Obs *obs.Hooks
	// Inject wires deterministic fault injection into the heap, the fast
	// pool, the work-stealer and the scheduler. Nil injects nothing.
	Inject *faultinject.Injector
	// RunOpts bounds the run (watchdog budgets); the zero value is unlimited.
	RunOpts vm.RunOpts
	// LenientMem restores the pre-fault-model memory semantics (wild guest
	// accesses silently allocate instead of raising a GuestFault).
	LenientMem bool
	// Engine selects the DBI execution engine: dbi.EngineCompiled (micro-op
	// translations), dbi.EngineIR (the reference IR interpreter, the
	// compiled engine's differential oracle), or "" to keep the default for
	// the tool. No front end exposes it: the supervisor's fallback and the
	// differential tests set it.
	Engine string
	// Journal, when set, is attached to the machine and the injector: in
	// record mode every scheduler pick and injection draw is logged, with a
	// state mark every Journal.MarkEvery slices; in verify mode the run is
	// checked decision-by-decision against a prior recording (see
	// internal/snapshot).
	Journal *snapshot.Journal
	// ReplayToken, when non-empty, is stamped onto any CrashReport this
	// run produces, so the rendered report tells the user how to reproduce
	// it (`taskgrind -replay <token>`).
	ReplayToken string
	// TStore, when set, attaches the content-addressed translation store:
	// the compiled engine resolves translations from (and publishes to)
	// the cache's store for this run's (image hash, tool) key, so
	// translation happens once per image rather than once per run. Blocks
	// enter the store on demand, as the guest reaches them; an
	// ahead-of-execution pretranslation mode was removed because it never
	// beat cold translation end to end. The IR engine and tools that fix
	// the engine themselves (compile-time instrumentation) run without it.
	TStore *tstore.Cache
}

// Instance is a ready-to-run guest machine with all substrates attached.
type Instance struct {
	M      *vm.Machine
	Core   *dbi.Core
	Lib    *hostlib.Lib
	OMP    *omp.Runtime
	Inject *faultinject.Injector
	// RunOpts are applied by Run.
	RunOpts vm.RunOpts
	// Journal is the attached decision journal (nil unless set).
	Journal *snapshot.Journal
	// ReplayToken is stamped onto crash reports (see Setup.ReplayToken).
	ReplayToken string
	// Obs echoes Setup.Obs (nil when observability is off).
	Obs *obs.Hooks
	// TStore echoes Setup.TStore when the store was attached (nil under the
	// IR engine or when the tool fixes its own engine); CaptureMetrics
	// snapshots its counters.
	TStore *tstore.Cache
}

// New builds an instance.
func New(s Setup) (*Instance, error) {
	inst := &Instance{}
	reg := vm.NewHostRegistry()
	inst.Lib = hostlib.New()
	inst.Lib.Install(reg)
	inst.OMP = omp.NewRuntime()
	if s.Threads > 0 {
		inst.OMP.MaxThreads = s.Threads
	}
	inst.OMP.Install(reg)
	if s.ExtraHost != nil {
		s.ExtraHost(reg, inst)
	}
	slice := s.Slice
	if slice == 0 {
		slice = 3
	}
	m, err := vm.New(s.Image, reg, vm.Config{
		Seed: s.Seed, Stdout: s.Stdout, Slice: slice, LenientMem: s.LenientMem,
	})
	if err != nil {
		return nil, err
	}
	inst.M = m
	inst.RunOpts = s.RunOpts
	inst.Core = dbi.New(m, s.Tool)
	if s.Engine != "" {
		if err := inst.Core.SelectEngine(s.Engine); err != nil {
			return nil, err
		}
	}
	if s.TStore != nil && !inst.Core.EngineFixed() && s.Engine != dbi.EngineIR {
		var toolID string
		switch tl := s.Tool.(type) {
		case nil:
			toolID = "none"
		case dbi.Identifier:
			toolID = tl.ToolID()
		default:
			toolID = s.Tool.Name()
		}
		inst.Core.Shared = s.TStore.Open(tstore.Key{Image: tstore.ImageHash(s.Image), Tool: toolID})
		inst.TStore = s.TStore
	}
	inst.Lib.Bind(inst.Core)
	inst.OMP.Attach(m)
	if in := s.Inject; in != nil && in.Enabled() {
		inst.Inject = in
		inst.Lib.Heap.FailHook = func(uint64) bool { return in.Fire(faultinject.HeapAlloc) }
		inst.OMP.Pool.FailHook = func(uint64) bool { return in.Fire(faultinject.PoolAlloc) }
		inst.OMP.DenySteal = func() bool { return in.Fire(faultinject.StealDeny) }
		inst.OMP.LockSpurious = func() bool { return in.Fire(faultinject.LockSpurious) }
		inst.OMP.LockDelay = func() bool { return in.Fire(faultinject.LockDelay) }
		inst.OMP.TrylockFail = func() bool { return in.Fire(faultinject.TrylockFail) }
		m.Perturb = func() bool { return in.Fire(faultinject.SchedPerturb) }
		// The compiled engine's injected-defect hook. The IR oracle never
		// consults it, so -on-panic=fallback sidesteps the injected panic.
		inst.Core.PanicHook = func() bool { return in.Fire(faultinject.EnginePanic) }
	}
	inst.ReplayToken = s.ReplayToken
	if s.Journal != nil {
		inst.Journal = s.Journal
		m.Journal = s.Journal
		if in := inst.Inject; in != nil {
			// Injection decisions enter the record stream (per-kind, with
			// prefix semantics on verify — see snapshot.Journal.Fire).
			in.Observe = func(k faultinject.Kind, fired bool) {
				_ = s.Journal.Fire(int(k), fired)
			}
		}
	}
	if tg, ok := s.Tool.(*core.Taskgrind); ok && tg.Opt.NoFreePool {
		// The §IV-B future-work extension: neutralize the runtime's
		// internal allocator recycling (the effect of wrapping
		// __kmp_fast_allocate).
		inst.OMP.Pool.Recycle = false
	}
	if s.Tool != nil {
		// Inject the built-in OMPT tool: runtime events become client
		// requests delivered to the plugin (paper Fig. 2).
		inst.OMP.Events = &ompt.Bridge{Core: inst.Core}
	}
	if s.Obs != nil {
		inst.Obs = s.Obs
		inst.Core.SetObs(s.Obs)
		inst.OMP.SetObs(s.Obs)
		if in := inst.Inject; in != nil && s.Obs.Tracing() {
			// Injection firings become trace instants (thread -1: the
			// decision is drawn inside a host call, before attribution).
			tr := s.Obs.Tracer
			in.OnFire = func(k faultinject.Kind) {
				tr.Instant(m.BlocksExecuted, -1, "inject", k.String(), nil)
			}
		}
	}
	return inst, nil
}

// CaptureMetrics copies every subsystem's own counters into the registry —
// the snapshot step that complements the live counters hooks increment
// during the run. Hot-path statistics (block/instruction counts, cache
// hits) stay plain struct fields and are only materialized here, so
// enabling metrics costs the hot loops nothing extra. Call after Run.
func (inst *Instance) CaptureMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := inst.M
	reg.Counter("vm_blocks_executed_total").Set(m.BlocksExecuted)
	reg.Counter("vm_instrs_executed_total").Set(m.InstrsExecuted)
	reg.Counter("sched_switches_total").Set(m.Switches)
	reg.Counter("sched_slices_total").Set(m.Slices)
	reg.Counter("sched_preemptions_total").Set(m.Preemptions)
	reg.Gauge("mem_footprint_bytes").Set(float64(m.Footprint()))
	for _, t := range m.Threads() {
		id := fmt.Sprintf("%d", t.ID)
		reg.Counter("vm_thread_blocks_total", "thread", id).Set(t.BlocksExecuted)
		reg.Counter("vm_thread_instrs_total", "thread", id).Set(t.InstrsExecuted)
	}

	c := inst.Core
	reg.Counter("dbi_translations_total").Set(c.Translations)
	reg.Counter("dbi_cache_hits_total").Set(c.CacheHits)
	reg.Counter("dbi_cache_misses_total").Set(c.CacheMisses)
	reg.Counter("dbi_shared_hits_total").Set(c.SharedHits)
	reg.Counter("dbi_cache_stmts").Set(c.CacheStmts())
	reg.Gauge("dbi_cache_footprint_bytes").Set(float64(c.CacheFootprint()))
	reg.Counter("dbi_compiles_total").Set(c.Compiles)
	reg.Counter("dbi_dirty_calls_total").Set(c.DirtyCalls)
	reg.Counter("dbi_accesses_delivered_total").Set(c.AccessesDelivered)

	reg.Counter("vm_guest_faults_total").Set(m.GuestFaults)
	reg.Counter("vm_host_panics_total").Set(m.HostPanics)
	reg.Counter("vm_watchdog_trips_total").Set(m.WatchdogTrips)

	if j := inst.Journal; j != nil {
		reg.Counter("journal_decisions_total").Set(uint64(j.Len()))
		reg.Counter("journal_marks_total").Set(uint64(len(j.Marks())))
	}

	r := inst.OMP
	reg.Counter("omp_tasks_created_total").Set(r.TasksCreated)
	reg.Counter("omp_tasks_undeferred_total").Set(r.TasksUndeferred)
	reg.Counter("omp_regions_total").Set(r.RegionsStarted)
	reg.Counter("omp_steals_attempted_total").Set(r.StealsAttempted)
	reg.Counter("omp_steals_successful_total").Set(r.StealsSuccessful)
	reg.Counter("omp_steals_denied_total").Set(r.StealsDenied)
	reg.Counter("omp_alloc_failures_total").Set(r.AllocFailures)
	reg.Counter("omp_mutex_acquires_total").Set(r.MutexAcquires)
	reg.Counter("omp_mutex_contended_total").Set(r.MutexContended)
	reg.Counter("omp_mutex_handoffs_total").Set(r.MutexHandoffs)
	reg.Counter("omp_trylocks_failed_total").Set(r.TrylocksFailed)
	reg.Counter("omp_cond_waits_total").Set(r.CondWaits)
	reg.Counter("omp_cond_signals_total").Set(r.CondSignals)
	reg.Counter("omp_cond_spurious_total").Set(r.CondSpurious)
	reg.Counter("pool_allocs_total").Set(r.Pool.TotalAlloc)
	reg.Counter("pool_frees_total").Set(r.Pool.TotalFree)

	inst.Inject.PublishMetrics(reg)
	if inst.Obs != nil {
		inst.Obs.Tracer.PublishMetrics(reg)
	}

	if inst.TStore != nil {
		cs := inst.TStore.Stats()
		reg.Counter("tstore_units").Set(uint64(cs.Units))
		reg.Counter("tstore_hits_total").Set(cs.Hits)
		reg.Counter("tstore_misses_total").Set(cs.Misses)
		reg.Counter("tstore_translations_total").Set(cs.Puts)
		reg.Counter("tstore_evictions_total").Set(cs.Evictions)
		reg.Gauge("tstore_bytes").Set(float64(cs.Bytes))
	}

	heap := inst.Lib.Heap
	reg.Counter("heap_allocs_total").Set(heap.TotalAlloc)
	reg.Counter("heap_frees_total").Set(heap.TotalFree)
	reg.Gauge("heap_live_bytes").Set(float64(heap.LiveBytes()))
	reg.Gauge("heap_peak_bytes").Set(float64(heap.PeakBytes()))

	if src, ok := inst.Core.Tool().(obs.MetricSource); ok {
		src.PublishMetrics(reg)
	}
}

// Result captures one run's metrics.
type Result struct {
	ExitCode uint64
	// Wall is the host wall-clock execution time (recording phase only,
	// like the paper's Table II timing).
	Wall time.Duration
	// GuestInstrs is the deterministic work metric.
	GuestInstrs uint64
	// Footprint is guest memory + tool shadow memory at exit.
	Footprint uint64
	Err       error
	// Crash is the structured report when Err is a contained failure
	// (guest fault, host panic, watchdog, deadlock); nil otherwise.
	Crash *vm.CrashReport
}

// Run executes the program (and the tool's Fini pass) and reports metrics.
// The wall time covers the recording phase only; analysis time is the
// tool's business, matching the paper's measurement methodology.
//
// Run never lets a Go panic escape: the VM contains panics at the block
// boundary, and the tool's Fini pass (which runs outside the VM) is guarded
// here. Contained failures come back as Result.Err with Result.Crash set.
func (inst *Instance) Run() Result { return inst.RunCtx(nil) }

// RunCtx runs like Run under a cancellation context: cancel interrupts the
// guest within one timeslice (Result.Err is a *vm.CanceledError), and a
// context deadline trips the wall watchdog. A nil ctx keeps the context
// check off the slice loop entirely. The RunOpts.Timeout budget composes
// either way — with a context it becomes a derived deadline on it.
func (inst *Instance) RunCtx(ctx context.Context) Result {
	opts := inst.RunOpts
	opts.Ctx = ctx
	start := time.Now()
	err := inst.M.RunOpts(opts)
	wall := time.Since(start)
	if err == nil && inst.Core.Tool() != nil {
		err = inst.finiGuarded()
	}
	res := Result{
		ExitCode:    inst.M.ExitCode(),
		Wall:        wall,
		GuestInstrs: inst.M.InstrsExecuted,
		Footprint:   inst.M.Footprint(),
		Err:         err,
		Crash:       inst.M.CrashReport(err),
	}
	if res.Crash != nil {
		res.Crash.ReplayToken = inst.ReplayToken
	}
	return res
}

// finiGuarded runs the tool's analysis pass with panic containment: Fini
// executes host-side after the guest has exited, so the VM's block-boundary
// recover cannot cover it.
func (inst *Instance) finiGuarded() (err error) {
	defer func() {
		if r := recover(); r != nil {
			inst.M.HostPanics++
			err = &vm.HostPanic{Val: r, TID: -1, GoStack: debug.Stack()}
		}
	}()
	inst.Core.Tool().Fini(inst.Core)
	return nil
}

// BuildAndRun links a builder, builds an instance and runs it — the
// one-stop helper tests use.
func BuildAndRun(b *gbuild.Builder, s Setup) (Result, *Instance, error) {
	im, err := b.Link()
	if err != nil {
		return Result{}, nil, err
	}
	s.Image = im
	inst, err := New(s)
	if err != nil {
		return Result{}, nil, err
	}
	res := inst.Run()
	return res, inst, nil
}
