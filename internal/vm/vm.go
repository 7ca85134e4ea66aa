// Package vm implements the guest machine: register state, threads, a
// deterministic cooperative scheduler, the host-call interface, and a fast
// direct interpreter used for uninstrumented ("no tools") runs.
//
// The execution model mirrors Valgrind's: exactly one guest thread runs at a
// time, and control can switch only at basic-block boundaries or when a
// thread blocks in a host call. Scheduling decisions are drawn from a seeded
// PRNG, so every run is replayable from (program, seed) — which is what makes
// the race-detection experiments reproducible.
package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/gmem"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// ThreadExitAddr is the magic return address installed in LR when a thread
// starts; returning to it terminates the thread.
const ThreadExitAddr uint64 = 0x0000_0f00

// ThreadState enumerates scheduler states.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked
	ThreadExited
)

// Frame is one entry of a thread's shadow call stack, maintained by the
// execution engines on call/return instructions. Tools use it to produce
// stack traces (e.g. allocation sites in race reports).
type Frame struct {
	// Fn is the callee entry address.
	Fn uint64
	// CallSite is the address of the call instruction.
	CallSite uint64
	// SP is the stack pointer at function entry.
	SP uint64
}

// Thread is one guest thread.
type Thread struct {
	ID    int
	Regs  [guest.NumRegs]uint64
	PC    uint64
	State ThreadState

	// StackLo/StackHi delimit the thread's stack region.
	StackLo, StackHi uint64
	// TLSBase is the thread's TLS block base (its TCB address).
	TLSBase uint64
	// TLSGen is the DTV generation counter; bumped when the thread's TLS
	// layout changes (models the paper's DTV gen number).
	TLSGen uint64

	// CallStack is the shadow call stack.
	CallStack []Frame

	// BlockReason describes why the thread is blocked (diagnostics).
	BlockReason string

	// Tool is per-thread tool state (opaque to the VM).
	Tool any
	// RT is per-thread runtime state (opaque to the VM).
	RT any

	// BlocksExecuted / InstrsExecuted are this thread's share of the
	// machine totals (the per-thread execution metrics).
	BlocksExecuted uint64
	InstrsExecuted uint64

	m *Machine
}

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Wake marks a blocked thread runnable.
func (t *Thread) Wake() {
	if t.State == ThreadBlocked {
		t.State = ThreadRunnable
		t.BlockReason = ""
	}
}

// Block marks the thread blocked with a diagnostic reason.
func (t *Thread) Block(reason string) {
	t.State = ThreadBlocked
	t.BlockReason = reason
}

// PushFrame records a call on the shadow stack.
func (t *Thread) PushFrame(fn, callSite uint64) {
	t.CallStack = append(t.CallStack, Frame{Fn: fn, CallSite: callSite, SP: t.Regs[guest.SP]})
}

// PopFrame records a return.
func (t *Thread) PopFrame() {
	if n := len(t.CallStack); n > 0 {
		t.CallStack = t.CallStack[:n-1]
	}
}

// StackTrace snapshots the current call chain, innermost first, as guest
// code addresses (call sites), starting with the given pc.
func (t *Thread) StackTrace(pc uint64) []uint64 {
	out := []uint64{pc}
	for i := len(t.CallStack) - 1; i >= 0; i-- {
		out = append(out, t.CallStack[i].CallSite)
	}
	return out
}

// CurrentFuncSym returns the symbol of the innermost shadow-stack function,
// or the function containing pc when the stack is empty.
func (t *Thread) CurrentFuncSym(pc uint64) *guest.Symbol {
	return t.m.Image.SymbolFor(pc)
}

// RunResult reports what happened while running a block (or attempting to).
type RunResult uint8

// Run results.
const (
	// RunOK: block completed; thread still runnable.
	RunOK RunResult = iota
	// RunBlocked: thread blocked in a host call.
	RunBlocked
	// RunThreadExited: the thread terminated.
	RunThreadExited
	// RunProgramExited: the whole program terminated.
	RunProgramExited
	// RunYield: thread voluntarily yielded the processor.
	RunYield
)

// HostAction tells the machine what to do after a host call returns.
type HostAction uint8

// Host call actions.
const (
	HostContinue HostAction = iota
	HostBlock
	HostYield
	HostExitThread
	HostExitProgram
)

// HostResult is returned by host library functions.
type HostResult struct {
	Ret    uint64
	Action HostAction
	// Reason documents a HostBlock action.
	Reason string
}

// HostFn is a host library function: it reads arguments from t.Regs[R0..R5]
// and returns a result placed in R0.
type HostFn func(m *Machine, t *Thread) HostResult

// Engine executes one guest basic block for a thread. The default engine is
// the direct interpreter; the DBI framework installs a translating,
// instrumenting engine instead.
type Engine interface {
	// RunBlock executes the basic block at t.PC and advances t.PC.
	RunBlock(m *Machine, t *Thread) (RunResult, error)
}

// FaultLocator is implemented by engines that track their fault-attribution
// state out of band instead of wrapping every RunBlock in a recover. When a
// panic unwinds out of RunBlock un-annotated, the machine's containment
// boundary calls FaultPoint to learn the guest PC of the faulting
// instruction; the engine also settles any instruction-count bookkeeping the
// unwind skipped (so counters show exactly the instructions that retired
// before the fault). Keeping the recover at the machine level — which
// already has one — lets the hot block dispatch run defer-free.
type FaultLocator interface {
	FaultPoint(m *Machine, t *Thread) uint64
}

// Hooks are optional callbacks the machine raises; the DBI core and tools
// attach here.
type Hooks struct {
	// ClientRequest handles an OpCreq; return value goes to R0.
	ClientRequest func(t *Thread, code int32, args [6]uint64) uint64
	// ThreadStart fires after a thread is created, before it runs.
	ThreadStart func(t *Thread)
	// ThreadExit fires when a thread terminates.
	ThreadExit func(t *Thread)
	// Switch fires when the scheduler switches to a different thread.
	Switch func(t *Thread)
}

// Machine is a guest machine instance: one loaded image, one address space,
// and a set of guest threads driven by the scheduler.
type Machine struct {
	Image *guest.Image
	Mem   *gmem.Memory
	Eng   Engine
	Hooks Hooks

	// Stdout receives guest program output.
	Stdout io.Writer

	threads []*Thread
	// runnableBuf is pick()'s reusable scratch slice (the scheduler is
	// single-threaded by construction), keeping steady-state scheduling
	// allocation-free.
	runnableBuf []*Thread
	hostFns     []HostFn // indexed by host-import id
	// decoded is the image's decoded text ("native" execution does not
	// re-decode instruction words on every visit), shared with the image.
	decoded []guest.Instr

	nextStackTop uint64
	nextTLS      uint64
	tlsBlockSize uint64

	rng      uint64
	slice    int
	exited   bool
	exitCode uint64

	// Stats.
	BlocksExecuted uint64
	InstrsExecuted uint64
	Switches       uint64
	// Slices counts scheduler timeslices started; Preemptions counts
	// slices that expired with the thread still runnable.
	Slices      uint64
	Preemptions uint64
	// GuestFaults / HostPanics / WatchdogTrips count contained failures
	// (see crash.go); captured into the obs metrics registry.
	GuestFaults   uint64
	HostPanics    uint64
	WatchdogTrips uint64

	// Perturb, when set, is consulted once per timeslice; returning true
	// shrinks that slice to a single block (deterministic scheduler
	// perturbation, used by fault injection).
	Perturb func() bool

	// Journal, when set, records (or verifies) every scheduler decision:
	// which thread each timeslice picked and whether the perturb draw
	// fired, plus a state mark every Journal.MarkEvery executed slices. In
	// verify mode a divergence from the recording aborts the run with a
	// *snapshot.Divergence at the next slice boundary.
	Journal *snapshot.Journal

	// ExtraFootprint lets tools add their shadow-structure size to the
	// reported memory usage.
	ExtraFootprint func() uint64

	// Obs carries the optional observability hooks (metrics, tracing,
	// profiling). Nil means observability is off: the dispatch path pays
	// one pointer comparison per block and nothing else.
	Obs *obs.Hooks
}

// Config parameterizes machine creation.
type Config struct {
	// Seed drives the scheduler PRNG. Seed 0 is valid (mapped internally).
	Seed uint64
	// Slice is the timeslice in basic blocks (default 64).
	Slice int
	// TLSBlockSize is the per-thread TLS reservation (default 4096).
	TLSBlockSize uint64
	// Stdout receives guest output (default: discard).
	Stdout io.Writer
	// LenientMem restores the historical lenient memory model: guest
	// accesses to unmapped addresses silently allocate pages instead of
	// raising a GuestFault (the compatibility escape hatch).
	LenientMem bool
}

// New creates a machine for a frozen image, loads text and data, and creates
// the main thread at the image entry.
func New(im *guest.Image, reg *HostRegistry, cfg Config) (*Machine, error) {
	if !im.Frozen() {
		return nil, errors.New("vm: image not frozen")
	}
	if cfg.Slice <= 0 {
		cfg.Slice = 64
	}
	if cfg.TLSBlockSize == 0 {
		cfg.TLSBlockSize = 4096
	}
	if need := im.TLSSize + 128; cfg.TLSBlockSize < need {
		cfg.TLSBlockSize = (need + 4095) &^ 4095
	}
	out := cfg.Stdout
	if out == nil {
		out = io.Discard
	}
	m := &Machine{
		Image:        im,
		Mem:          gmem.New(),
		Stdout:       out,
		nextStackTop: guest.StackRegionTop,
		nextTLS:      guest.TLSBase,
		tlsBlockSize: cfg.TLSBlockSize,
		rng:          cfg.Seed*2654435761 + 0x9e3779b97f4a7c15,
		slice:        cfg.Slice,
		decoded:      im.Decoded(),
	}
	// Resolve host imports.
	m.hostFns = make([]HostFn, len(im.HostImports))
	for i, name := range im.HostImports {
		fn, ok := reg.resolve(name)
		if !ok {
			return nil, fmt.Errorf("vm: unresolved host import %q", name)
		}
		m.hostFns[i] = fn
	}
	// Load segments.
	m.Mem.WriteWords(guest.TextBase, im.Text)
	m.Mem.WriteBytes(guest.DataBase, im.Data)
	// Wire the permission map from the image: text is read-only, data is
	// read-write. Heap/pool allocations, TLS blocks and stacks are mapped
	// by the allocators and NewThread; everything else is unmapped, so a
	// wild pointer raises a GuestFault instead of silently allocating.
	m.Mem.Map(guest.TextBase, uint64(len(im.Text))*guest.InstrBytes, gmem.PermR)
	m.Mem.Map(guest.DataBase, uint64(len(im.Data)), gmem.PermRW)
	m.Mem.Strict = !cfg.LenientMem
	m.Eng = &DirectEngine{}
	// Main thread.
	m.NewThread(im.Entry, 0)
	return m, nil
}

// HostLib is the host functions one library type provides, by the names
// guest code imports them under. A library declares its HostLib once per
// process and shares it read-only: installing a library instance copies
// no table, and only the functions an image imports are bound to the
// instance.
type HostLib[T any] map[string]func(T, *Machine, *Thread) HostResult

// Install makes the library's functions, called on recv, available to
// machines created from reg.
func (l HostLib[T]) Install(reg *HostRegistry, recv T) {
	reg.libs = append(reg.libs, func(name string) (HostFn, bool) {
		fn, ok := l[name]
		if !ok {
			return nil, false
		}
		return func(m *Machine, t *Thread) HostResult { return fn(recv, m, t) }, true
	})
}

// HostRegistry collects the host functions a machine's imports resolve
// against: installed libraries and functions registered one by one. A
// function registered by name takes precedence over every library, and a
// library over those installed before it.
type HostRegistry struct {
	libs []func(name string) (HostFn, bool)
	fns  map[string]HostFn
}

// NewHostRegistry creates an empty registry.
func NewHostRegistry() *HostRegistry { return &HostRegistry{} }

// Register adds or replaces a host function.
func (r *HostRegistry) Register(name string, fn HostFn) {
	if r.fns == nil {
		r.fns = make(map[string]HostFn)
	}
	r.fns[name] = fn
}

// resolve binds an imported name; a nil registry binds nothing.
func (r *HostRegistry) resolve(name string) (HostFn, bool) {
	if r == nil {
		return nil, false
	}
	if fn, ok := r.fns[name]; ok {
		return fn, true
	}
	for i := len(r.libs) - 1; i >= 0; i-- {
		if fn, ok := r.libs[i](name); ok {
			return fn, true
		}
	}
	return nil, false
}

// RedirectHost replaces the binding of an imported host function at run time
// (Valgrind-style function replacement). It returns the previous binding so a
// tool can wrap it, and an error if the image does not import the name.
func (m *Machine) RedirectHost(name string, fn HostFn) (HostFn, error) {
	for i, n := range m.Image.HostImports {
		if n == name {
			old := m.hostFns[i]
			m.hostFns[i] = fn
			return old, nil
		}
	}
	return nil, fmt.Errorf("vm: image does not import host function %q", name)
}

// decodedAt returns the predecoded instruction at a text address, or nil for
// an address outside the text segment or between instructions. Callers must
// not modify it. It returns a pointer because an Instr returned by value
// comes back in registers field by field, and storing those bytes and
// reloading the whole word misses store forwarding on every instruction the
// direct interpreter runs.
func (m *Machine) decodedAt(addr uint64) *guest.Instr {
	idx := (addr - guest.TextBase) / guest.InstrBytes
	if addr < guest.TextBase || idx >= uint64(len(m.decoded)) || (addr-guest.TextBase)%guest.InstrBytes != 0 {
		return nil
	}
	return &m.decoded[idx]
}

// HostName returns the name of host import id (diagnostics).
func (m *Machine) HostName(id int32) string {
	if id >= 0 && int(id) < len(m.Image.HostImports) {
		return m.Image.HostImports[id]
	}
	return fmt.Sprintf("#%d", id)
}

// NewThread creates a guest thread entering fn(arg). It allocates a stack
// and a TLS block and returns the thread.
func (m *Machine) NewThread(entry, arg uint64) *Thread {
	t := &Thread{
		ID: len(m.threads),
		m:  m,
	}
	t.StackHi = m.nextStackTop
	t.StackLo = t.StackHi - guest.StackSize
	m.nextStackTop = t.StackLo - gmem.PageSize // guard gap
	t.TLSBase = m.nextTLS
	m.nextTLS += m.tlsBlockSize
	t.TLSGen = 1
	// Map the stack and TLS block; the guard gap below the stack stays
	// unmapped, so stack overflow faults instead of corrupting a neighbour.
	m.Mem.Map(t.StackLo, guest.StackSize, gmem.PermRW)
	m.Mem.Map(t.TLSBase, m.tlsBlockSize, gmem.PermRW)

	t.PC = entry
	t.Regs[guest.R0] = arg
	t.Regs[guest.TP] = t.TLSBase
	t.Regs[guest.SP] = t.StackHi &^ 15
	t.Regs[guest.FP] = t.Regs[guest.SP]
	t.Regs[guest.LR] = ThreadExitAddr
	m.threads = append(m.threads, t)
	if m.Hooks.ThreadStart != nil {
		m.Hooks.ThreadStart(t)
	}
	return t
}

// Threads returns all threads (exited included).
func (m *Machine) Threads() []*Thread { return m.threads }

// Thread returns thread #id.
func (m *Machine) Thread(id int) *Thread { return m.threads[id] }

// ExitCode returns the program exit status once Run has finished.
func (m *Machine) ExitCode() uint64 { return m.exitCode }

// Exited reports whether the program has terminated.
func (m *Machine) Exited() bool { return m.exited }

// SchedRand draws the next value from the scheduler PRNG. Host-call sites
// that need a seed-deterministic choice (mutex handoff, condvar signal
// targets) share the stream with the thread picker, so the whole schedule —
// including lock handoff order — stays a pure function of (program, seed).
func (m *Machine) SchedRand() uint64 { return m.rand() }

// rand returns the next PRNG value (xorshift64*).
func (m *Machine) rand() uint64 {
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	return x * 2685821657736338717
}

// StateDigest is the cheap online-divergence digest a journal mark carries:
// FNV-1a over the scheduler counters, the PRNG position and every thread's
// ID, PC, state, instruction count, registers and call stack. It excludes
// memory, so it costs the same however much of it the guest touched.
func (m *Machine) StateDigest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (v >> shift & 0xff)) * prime
		}
	}
	for _, v := range []uint64{m.Slices, m.BlocksExecuted, m.InstrsExecuted, m.Switches, m.rng} {
		mix(v)
	}
	for _, t := range m.threads {
		mix(uint64(t.ID))
		mix(t.PC)
		mix(uint64(t.State))
		mix(t.InstrsExecuted)
		for _, r := range t.Regs {
			mix(r)
		}
		for _, f := range t.CallStack {
			mix(f.Fn)
			mix(f.CallSite)
			mix(f.SP)
		}
	}
	return h
}

// ErrDeadlock is returned by Run when no thread can make progress. The
// concrete error is a *DeadlockError carrying per-thread dumps;
// errors.Is(err, ErrDeadlock) matches it.
var ErrDeadlock = errors.New("vm: deadlock: no runnable threads")

// RunOpts bounds a Run. Zero values mean unlimited: the watchdog only bites
// where a budget is set.
type RunOpts struct {
	// MaxBlocks bounds the total number of executed basic blocks.
	MaxBlocks uint64
	// MaxInstrs bounds the total number of executed guest instructions.
	MaxInstrs uint64
	// Timeout bounds host wall-clock time (checked once per timeslice, so
	// enabling it costs nothing on the block dispatch path). Unlike the
	// deterministic budgets, where it trips depends on host speed. When Ctx
	// is also set, the timeout rides the context (a derived deadline), so
	// one cancellation mechanism covers both.
	Timeout time.Duration
	// Ctx, when non-nil, cancels the run externally: a context deadline
	// trips the "wall" watchdog, any other cancellation terminates the run
	// with a *CanceledError. Checked once per timeslice alongside the
	// budgets, so a canceled guest stops within one slice.
	Ctx context.Context
	// ProgressEvery, when > 0, invokes OnProgress every ProgressEvery
	// timeslices with the machine's running block/instruction totals — a
	// race-free export of run progress for external monitors (the daemon's
	// /jobs/{id} view). The callback runs on the execution goroutine; it
	// must not touch the machine.
	ProgressEvery int
	// OnProgress receives the progress ticks (see ProgressEvery).
	OnProgress func(blocks, instrs uint64)
}

// Run drives the scheduler until the program exits, deadlocks, or the block
// budget is exhausted.
func (m *Machine) Run() error { return m.RunOpts(RunOpts{}) }

// watchdog builds the budget-exhausted error with a full thread dump.
func (m *Machine) watchdog(kind string, limit uint64) error {
	m.WatchdogTrips++
	return &WatchdogError{Kind: kind, Limit: limit, Threads: m.DumpThreads()}
}

// checkBudgets trips the watchdog when a run budget is exhausted, or
// terminates the run when its context was canceled.
func (m *Machine) checkBudgets(opts *RunOpts, deadline time.Time) error {
	if opts.MaxBlocks > 0 && m.BlocksExecuted >= opts.MaxBlocks {
		return m.watchdog("blocks", opts.MaxBlocks)
	}
	if opts.MaxInstrs > 0 && m.InstrsExecuted >= opts.MaxInstrs {
		return m.watchdog("instrs", opts.MaxInstrs)
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return m.watchdog("wall", uint64(opts.Timeout))
	}
	if ctx := opts.Ctx; ctx != nil {
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				// A deadline (the Timeout wrapper, or the caller's own)
				// is the wall watchdog, just context-delivered.
				return m.watchdog("wall", uint64(opts.Timeout))
			}
			return &CanceledError{Cause: context.Cause(ctx), Threads: m.DumpThreads()}
		default:
		}
	}
	return nil
}

// RunOpts runs with options.
func (m *Machine) RunOpts(opts RunOpts) error {
	var deadline time.Time
	if opts.Timeout > 0 {
		if opts.Ctx != nil {
			// Context-based cancellation is active: deliver the wall
			// budget through the same channel, so one Done check covers
			// both and an external cancel interrupts just as promptly.
			ctx, cancel := context.WithTimeout(opts.Ctx, opts.Timeout)
			defer cancel()
			opts.Ctx = ctx
		} else {
			deadline = time.Now().Add(opts.Timeout)
		}
	}
	// Mark/progress cadence: counted in executed slices across both loop
	// paths, so the cadence is independent of how slices batch into
	// scheduler rounds. Marks fall at block boundaries only; a slice that
	// ends in an error is never marked.
	markEvery := 0
	if m.Journal != nil {
		markEvery = m.Journal.MarkEvery
	}
	markLeft := markEvery
	progLeft := opts.ProgressEvery
	sliceEnd := func() error {
		if opts.ProgressEvery > 0 {
			if progLeft--; progLeft <= 0 {
				progLeft = opts.ProgressEvery
				if opts.OnProgress != nil {
					opts.OnProgress(m.BlocksExecuted, m.InstrsExecuted)
				}
			}
		}
		if markEvery <= 0 {
			return nil
		}
		if markLeft--; markLeft > 0 {
			return nil
		}
		markLeft = markEvery
		return m.Journal.AddMark(snapshot.Mark{
			Slice: m.Slices, Blocks: m.BlocksExecuted, Instrs: m.InstrsExecuted,
			Digest: m.StateDigest(),
		})
	}
	var cur *Thread
	for !m.exited {
		if err := m.checkBudgets(&opts, deadline); err != nil {
			return err
		}
		t := m.pick()
		if t == nil {
			if m.allExited() {
				return nil
			}
			return &DeadlockError{Threads: m.DumpThreads(), summary: m.blockedSummary()}
		}
		if t != cur {
			m.Switches++
			cur = t
			if m.Hooks.Switch != nil {
				m.Hooks.Switch(t)
			}
			if h := m.Obs; h != nil && h.Tracer != nil {
				h.Tracer.Instant(m.BlocksExecuted, t.ID, "sched", "switch", nil)
			}
		}
		m.Slices++
		slice := m.slice
		perturbed := m.Perturb != nil && m.Perturb()
		if perturbed {
			slice = 1
		}
		if m.Journal != nil {
			if err := m.Journal.Slice(m.Slices, t.ID, perturbed); err != nil {
				return err
			}
		}
		voluntary, err := m.runSlice(t, slice)
		if err != nil {
			return err
		}
		if err := sliceEnd(); err != nil {
			return err
		}
		// Solo fast path: while t is the only runnable thread, a full
		// scheduling round could only re-pick it — so keep feeding it
		// slices here without the per-slice accounting (switch check,
		// slice/preemption counters). The PRNG and perturbation streams
		// are consumed exactly as the full round would (one draw, one
		// Perturb consult per slice), so schedules are bit-identical to
		// the unbatched loop; only the bookkeeping is amortized.
		for !voluntary && t.State == ThreadRunnable && !m.exited && m.soleRunnable(t) {
			if err := m.checkBudgets(&opts, deadline); err != nil {
				return err
			}
			m.rand() // the draw pick() would have consumed
			slice = m.slice
			perturbed = m.Perturb != nil && m.Perturb()
			if perturbed {
				slice = 1
			}
			if m.Journal != nil {
				if err := m.Journal.Slice(m.Slices, t.ID, perturbed); err != nil {
					return err
				}
			}
			voluntary, err = m.runSlice(t, slice)
			if err != nil {
				return err
			}
			if err := sliceEnd(); err != nil {
				return err
			}
		}
		// An involuntary slice end with the thread still runnable is a
		// preemption: another thread is competing for the processor.
		if !voluntary && t.State == ThreadRunnable && !m.exited {
			m.Preemptions++
		}
	}
	return nil
}

// runSlice executes up to slice blocks of t, reporting whether the slice
// ended voluntarily. The profiler gate is resolved once per slice — the
// per-block cost of disabled observability is one predictable branch — and
// profiler samples are weighted by each dispatched block's retired
// instruction count (see obs.Profiler).
func (m *Machine) runSlice(t *Thread, slice int) (voluntary bool, err error) {
	var prof *obs.Profiler
	if h := m.Obs; h != nil {
		prof = h.Prof
	}
	for i := 0; i < slice && t.State == ThreadRunnable && !m.exited; i++ {
		pc0, i0 := t.PC, t.InstrsExecuted
		res, err := m.runBlockGuarded(t)
		if err != nil {
			var gf *GuestFault
			var hp *HostPanic
			if errors.As(err, &gf) || errors.As(err, &hp) {
				// Already carries thread/pc context.
				return false, err
			}
			return false, fmt.Errorf("vm: thread %d at 0x%x: %w", t.ID, t.PC, err)
		}
		m.BlocksExecuted++
		t.BlocksExecuted++
		if prof != nil {
			prof.SampleW(pc0, t.InstrsExecuted-i0)
		}
		switch res {
		case RunOK:
		case RunBlocked, RunThreadExited, RunProgramExited:
			i = slice
		case RunYield:
			voluntary = true
			i = slice
		}
	}
	return voluntary, nil
}

// pick selects the next runnable thread pseudo-randomly. The scratch slice
// is machine-owned, so steady-state scheduling does not allocate.
func (m *Machine) pick() *Thread {
	runnable := m.runnableBuf[:0]
	for _, t := range m.threads {
		if t.State == ThreadRunnable {
			runnable = append(runnable, t)
		}
	}
	m.runnableBuf = runnable
	if len(runnable) == 0 {
		return nil
	}
	return runnable[m.rand()%uint64(len(runnable))]
}

// soleRunnable reports whether t is the only runnable thread.
func (m *Machine) soleRunnable(t *Thread) bool {
	for _, o := range m.threads {
		if o.State == ThreadRunnable && o != t {
			return false
		}
	}
	return true
}

func (m *Machine) allExited() bool {
	for _, t := range m.threads {
		if t.State != ThreadExited {
			return false
		}
	}
	return true
}

func (m *Machine) blockedSummary() string {
	s := ""
	for _, t := range m.threads {
		if t.State == ThreadBlocked {
			s += fmt.Sprintf("; thread %d blocked: %s (pc=%s)", t.ID, t.BlockReason, m.Image.Locate(t.PC))
		}
	}
	return s
}

// DoHostCall dispatches a resolved host call and applies its action. The
// thread's PC must already point past the hcall instruction.
func (m *Machine) DoHostCall(t *Thread, id int32) RunResult {
	if id < 0 || int(id) >= len(m.hostFns) {
		panic(fmt.Sprintf("vm: bad host call id %d", id))
	}
	res := m.hostFns[id](m, t)
	t.Regs[guest.R0] = res.Ret
	switch res.Action {
	case HostContinue:
		return RunOK
	case HostYield:
		return RunYield
	case HostBlock:
		t.Block(res.Reason)
		return RunBlocked
	case HostExitThread:
		return m.exitThread(t)
	case HostExitProgram:
		m.exited = true
		m.exitCode = res.Ret
		return RunProgramExited
	}
	return RunOK
}

// DoClientRequest dispatches an OpCreq.
func (m *Machine) DoClientRequest(t *Thread, code int32) {
	var args [6]uint64
	copy(args[:], t.Regs[guest.R0:guest.R5+1])
	if m.Hooks.ClientRequest != nil {
		t.Regs[guest.R0] = m.Hooks.ClientRequest(t, code, args)
	} else {
		t.Regs[guest.R0] = 0
	}
}

// exitThread terminates t; terminating the main thread (id 0) ends the
// program with status R0.
func (m *Machine) exitThread(t *Thread) RunResult {
	t.State = ThreadExited
	if m.Hooks.ThreadExit != nil {
		m.Hooks.ThreadExit(t)
	}
	if t.ID == 0 {
		m.exited = true
		m.exitCode = t.Regs[guest.R0]
		return RunProgramExited
	}
	return RunThreadExited
}

// ExitThread is the exported form used by engines when a thread returns to
// ThreadExitAddr or executes OpHlt.
func (m *Machine) ExitThread(t *Thread) RunResult { return m.exitThread(t) }

// Footprint returns the resident guest memory plus any tool-reported shadow
// footprint — the "memory usage" metric of the evaluation.
func (m *Machine) Footprint() uint64 {
	f := m.Mem.Footprint()
	if m.ExtraFootprint != nil {
		f += m.ExtraFootprint()
	}
	return f
}
