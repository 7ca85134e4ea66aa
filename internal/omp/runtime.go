// Package omp implements the OpenMP-like task runtime the benchmarks run on:
// parallel regions with a reusable worker pool, explicit tasks with the full
// dependence-type set (in / out / inout / inoutset / mutexinoutset),
// taskwait, taskgroup, barriers, single, critical sections, detachable
// tasks, and work-stealing scheduling.
//
// The runtime is deliberately split the way a real one is: scheduler state
// and descriptors live in *guest memory* (allocated from the __kmp fast pool,
// which recycles — the allocator Valgrind-style wrapping cannot fix, §IV-B),
// and the dispatch loops are *guest code* under __kmp_* symbols emitted by
// EmitPrelude — so runtime accesses are instrumented like everything else and
// the ignore-list (§IV-A) has real work to do. Policy decisions (queues,
// dependence matching, barrier release) are host calls, playing the role the
// futex/kernel boundary plays for a native runtime.
package omp

import (
	"fmt"

	"repro/internal/gmem"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/ompt"
	"repro/internal/vm"
)

// Task descriptor layout in guest memory (the kmp_task_t analog).
const (
	// TDFn: entry function address.
	TDFn = 0
	// TDID: host-assigned task id.
	TDID = 8
	// TDFlags: creation flags.
	TDFlags = 16
	// TDPayload: start of the firstprivate payload area.
	TDPayload = 32
)

// Region descriptor layout (fork argument block). rdStats is a shared
// bookkeeping counter the guest-side runtime code updates without
// synchronization — the benign runtime non-determinism that makes the
// ignore-list necessary (§IV-A).
const (
	rdFn    = 0
	rdArg   = 8
	rdID    = 16
	rdStats = 24
	rdLen   = 32
)

// TaskState tracks a task through its lifetime.
type TaskState uint8

// Task states.
const (
	TaskCreated TaskState = iota
	TaskReady
	TaskRunning
	TaskFinished  // body done, completion pending (detached)
	TaskCompleted // completion side effects done
)

// Task is the host-side view of one task (implicit or explicit).
type Task struct {
	ID     uint64
	Desc   uint64 // guest address of the descriptor (0 for implicit tasks)
	Fn     uint64
	Flags  uint64
	Parent *Task
	Region *Region
	State  TaskState

	// npreds counts incomplete dependence predecessors.
	npreds int
	// succs are dependence successors released at completion.
	succs []*Task
	// incompleteChildren gates taskwait.
	incompleteChildren int
	// group is the taskgroup this task was created into (may be nil).
	group *taskgroup
	// groupStack is the stack of taskgroups this task has opened.
	groupStack []*taskgroup
	// depMap tracks sibling dependences keyed by address.
	depMap map[uint64]*depSlot
	// inWait marks an active taskwait.
	inWait bool
	// waitPreds is the wait set of an active `taskwait depend(...)`.
	waitPreds []*Task
	// creator is the thread state that enqueued the task.
	creator *ThreadState
}

type taskgroup struct {
	incomplete int
	waiting    bool
}

// depSlot is the per-(parent, address) dependence state machine.
type depSlot struct {
	// writers is the current "last writer set": one out/inout task, or the
	// current inoutset batch.
	writers []*Task
	// readers are the in-tasks since the last writer set.
	readers []*Task
	// setKind distinguishes a plain writer from an inoutset batch.
	setKind uint64
}

// barrier is a generation barrier.
type barrier struct {
	gen   uint64
	count int
}

// Region is a parallel region instance.
type Region struct {
	ID   uint64
	Desc uint64
	// Fn is the outlined parallel-region body's guest address.
	Fn      uint64
	Members []*ThreadState
	// incompleteTasks counts explicit tasks bound to the region.
	incompleteTasks int
	bar             barrier
	// implicitLive counts members whose implicit task has not ended.
	implicitLive int
	// singleClaimed marks which single-construct instances are taken.
	singleClaimed map[uint64]bool
	// master blocks in join until implicitLive reaches 0.
	master *ThreadState
}

// ThreadState is the per-guest-thread runtime state (stored in vm.Thread.RT).
type ThreadState struct {
	T         *vm.Thread
	Worker    bool
	Team      *Region
	ThreadNum int
	// cur is the innermost executing task.
	cur *Task
	// taskStack holds suspended outer tasks.
	taskStack []*Task
	// deque is the thread's ready-task deque (LIFO pop, FIFO steal).
	deque []*Task
	// barrier bookkeeping.
	inBarrier    bool
	barrierStart uint64
	// single construct instance counter.
	singleSeq uint64
	// pendingRegion is set by fork for parked workers.
	pendingRegion *Region
	// condState tracks the guest condvar wait protocol (locks.go).
	condState uint8
	// teamStack saves the enclosing team context across nested regions.
	teamStack []teamSnap
}

// teamSnap is the per-member team context saved at fork and restored at
// implicit-task end (nested parallel regions).
type teamSnap struct {
	team         *Region
	threadNum    int
	inBarrier    bool
	barrierStart uint64
	singleSeq    uint64
}

// Runtime is one machine's OpenMP runtime instance.
type Runtime struct {
	M      *vm.Machine
	Events ompt.Events
	// Pool is the internal fast allocator (recycles; not wrappable).
	Pool *mem.Allocator

	nextTaskID   uint64
	nextRegionID uint64
	workers      []*ThreadState
	// MaxThreads caps team sizes (default 4).
	MaxThreads int

	critOwner  map[uint64]*ThreadState
	critQueue  map[uint64][]*ThreadState
	mutexQueue map[uint64][]*ThreadState
	condQueue  map[uint64][]*ThreadState
	tasksByID  map[uint64]*Task
	regions    map[uint64]*Region
	workerAddr uint64 // guest entry of __kmp_worker_entry
	// StealSeed varies victim selection.
	stealCursor int

	// DenySteal, when set, is consulted on every steal attempt; returning
	// true makes the attempt fail (fault injection: a contended victim).
	DenySteal func() bool
	// TrylockFail, when set, makes a mutex trylock fail even when the lock
	// is free (fault injection: the POSIX weak trylock).
	TrylockFail func() bool
	// LockDelay, when set, rotates a mutex handoff to a different waiter
	// than the seed-deterministic pick (fault injection: delayed wakeup).
	LockDelay func() bool
	// LockSpurious, when set, turns a condvar wait into a spurious wakeup
	// (fault injection: return without a matching signal).
	LockSpurious func() bool

	// Stats.
	TasksCreated     uint64
	TasksUndeferred  uint64
	RegionsStarted   uint64
	StealsAttempted  uint64
	StealsSuccessful uint64
	StealsDenied     uint64
	// AllocFailures counts NULL returns from the fast pool (exhaustion or
	// injected failure) surfaced to the guest.
	AllocFailures uint64
	// Lock substrate stats (locks.go).
	MutexAcquires  uint64
	MutexContended uint64
	MutexHandoffs  uint64
	TrylocksFailed uint64
	CondWaits      uint64
	CondSignals    uint64
	CondSpurious   uint64

	// Obs carries the optional observability hooks; nil when disabled.
	Obs *obs.Hooks
	// Pre-resolved task-lifecycle counters (nil-safe when metrics off).
	ctrTaskCreate *obs.Counter
	ctrTaskBegin  *obs.Counter
	ctrTaskEnd    *obs.Counter
}

// NewRuntime creates a detached runtime. Install registers its host calls on
// a registry; Attach binds it to the machine built from that registry.
// Events may be left nil (no tool) or set to an ompt.Bridge.
func NewRuntime() *Runtime {
	return &Runtime{
		Events:     ompt.NopEvents{},
		Pool:       mem.New(guest.FastPoolBase, guest.FastPoolLimit),
		MaxThreads: 4,
		critOwner:  make(map[uint64]*ThreadState),
		critQueue:  make(map[uint64][]*ThreadState),
		mutexQueue: make(map[uint64][]*ThreadState),
		condQueue:  make(map[uint64][]*ThreadState),
		tasksByID:  make(map[uint64]*Task),
		regions:    make(map[uint64]*Region),
	}
}

// mapAlloc grants the guest RW access over a fresh fast-pool block under the
// strict memory model. Freed blocks stay mapped: the pool recycles them, and
// use-after-free is the tools' business, not a segfault.
func (r *Runtime) mapAlloc(m *vm.Machine, addr uint64) {
	m.Mem.Map(addr, r.Pool.SizeOf(addr), gmem.PermRW)
}

// Attach binds the runtime to its machine (after vm.New).
func (r *Runtime) Attach(m *vm.Machine) {
	r.M = m
	if sym := m.Image.SymbolByName("__kmp_worker_entry"); sym != nil {
		r.workerAddr = sym.Addr
	}
}

// SetObs attaches observability hooks and pre-resolves the task-lifecycle
// counters so the scheduling host calls increment through nil-safe pointers.
func (r *Runtime) SetObs(h *obs.Hooks) {
	r.Obs = h
	if h != nil && h.Metrics != nil {
		r.ctrTaskCreate = h.Metrics.Counter("omp_task_create_total")
		r.ctrTaskBegin = h.Metrics.Counter("omp_task_begin_total")
		r.ctrTaskEnd = h.Metrics.Counter("omp_task_end_total")
	} else {
		r.ctrTaskCreate, r.ctrTaskBegin, r.ctrTaskEnd = nil, nil, nil
	}
}

// tracing reports whether emit has a tracer to send to. Callers test it
// before building an event's arguments, which are otherwise built and boxed
// for nothing.
func (r *Runtime) tracing() bool { return r.Obs != nil && r.Obs.Tracer != nil }

// emit sends a task-runtime trace event on the machine's block clock. The
// caller has checked tracing.
func (r *Runtime) emit(ph obs.Phase, t *vm.Thread, name string, args map[string]any) {
	r.Obs.Tracer.Emit(obs.Event{
		TS: r.M.BlocksExecuted, Thread: t.ID, Phase: ph,
		Cat: "omp", Name: name, Args: args,
	})
}

// ts returns (creating if needed) the runtime state of a guest thread. The
// main thread lazily gets a root implicit task.
func (r *Runtime) ts(t *vm.Thread) *ThreadState {
	if s, ok := t.RT.(*ThreadState); ok {
		return s
	}
	s := &ThreadState{T: t}
	t.RT = s
	// Root task for the initial thread (serial part of the program).
	r.nextTaskID++
	root := &Task{ID: r.nextTaskID, State: TaskRunning, depMap: make(map[uint64]*depSlot)}
	r.tasksByID[root.ID] = root
	s.cur = root
	return s
}

// CurrentTaskID exposes the executing task's ID (testing / tools).
func (r *Runtime) CurrentTaskID(t *vm.Thread) uint64 {
	return r.ts(t).cur.ID
}

// TaskByID returns a task (testing aid).
func (r *Runtime) TaskByID(id uint64) *Task { return r.tasksByID[id] }

// LastTaskID returns the most recently assigned task id (testing aid).
func (r *Runtime) LastTaskID() uint64 { return r.nextTaskID }

// LastExplicitTaskID returns the highest id among explicit tasks (testing
// aid; implicit tasks also consume ids, so LastTaskID may name one).
func (r *Runtime) LastExplicitTaskID() uint64 {
	var best uint64
	for id, task := range r.tasksByID {
		if task.Desc != 0 && id > best {
			best = id
		}
	}
	return best
}

// Install registers every runtime host call.
func (r *Runtime) Install(reg *vm.HostRegistry) { runtimeHost.Install(reg, r) }

// runtimeHost is the runtime's host calls, by import name.
var runtimeHost = vm.HostLib[*Runtime]{
	"__kmp_fork_setup":         (*Runtime).hForkSetup,
	"__kmp_join_wait":          (*Runtime).hJoinWait,
	"__kmp_worker_wait":        (*Runtime).hWorkerWait,
	"__kmp_implicit_begin":     (*Runtime).hImplicitBegin,
	"__kmp_implicit_end":       (*Runtime).hImplicitEnd,
	"__kmp_barrier_poll":       (*Runtime).hBarrierPoll,
	"__kmp_task_alloc":         (*Runtime).hTaskAlloc,
	"__kmp_task_enqueue":       (*Runtime).hTaskEnqueue,
	"__kmp_task_begin":         (*Runtime).hTaskBegin,
	"__kmp_task_end":           (*Runtime).hTaskEnd,
	"__kmp_taskwait_poll":      (*Runtime).hTaskwaitPoll,
	"__kmp_taskwait_deps_init": (*Runtime).hTaskwaitDepsInit,
	"__kmp_taskwait_deps_poll": (*Runtime).hTaskwaitDepsPoll,
	"__kmp_taskgroup_begin":    (*Runtime).hTaskgroupBegin,
	"__kmp_taskgroup_poll":     (*Runtime).hTaskgroupPoll,
	"__kmp_single_enter":       (*Runtime).hSingleEnter,
	"__kmp_critical_enter":     (*Runtime).hCriticalEnter,
	"__kmp_critical_exit":      (*Runtime).hCriticalExit,
	"__kmp_mutex_init":         (*Runtime).hMutexInit,
	"__kmp_mutex_lock":         (*Runtime).hMutexLock,
	"__kmp_mutex_trylock":      (*Runtime).hMutexTrylock,
	"__kmp_mutex_unlock":       (*Runtime).hMutexUnlock,
	"__kmp_cond_init":          (*Runtime).hCondInit,
	"__kmp_cond_wait":          (*Runtime).hCondWait,
	"__kmp_cond_signal":        (*Runtime).hCondSignal,
	"__kmp_cond_broadcast":     (*Runtime).hCondBroadcast,
	"__kmp_get_thread_num":     (*Runtime).hGetThreadNum,
	"__kmp_get_num_threads":    (*Runtime).hGetNumThreads,
	"__kmp_fulfill_event":      (*Runtime).hFulfillEvent,
}

// --- parallel region management ---

func (r *Runtime) hForkSetup(m *vm.Machine, t *vm.Thread) vm.HostResult {
	fn := t.Regs[guest.R0]
	arg := t.Regs[guest.R1]
	n := int(t.Regs[guest.R2])
	if n <= 0 || n > r.MaxThreads {
		n = r.MaxThreads
	}
	master := r.ts(t)
	if master.Team != nil {
		// Nested parallel regions run serialized (team of one), like a
		// nesting-disabled LLVM runtime.
		n = 1
	}
	desc := r.Pool.Alloc(rdLen)
	if desc == 0 {
		// Pool exhausted: the region cannot start. Return NULL; the emitted
		// __kmpc_fork_call checks and skips the region body (the serial
		// fallback a real runtime takes when it cannot set up a team).
		r.AllocFailures++
		return vm.HostResult{Ret: 0}
	}
	r.mapAlloc(m, desc)
	r.nextRegionID++
	r.RegionsStarted++
	m.Mem.Store(desc+rdFn, 8, fn)
	m.Mem.Store(desc+rdArg, 8, arg)
	m.Mem.Store(desc+rdID, 8, r.nextRegionID)
	reg := &Region{
		ID:            r.nextRegionID,
		Desc:          desc,
		Fn:            fn,
		singleClaimed: make(map[uint64]bool),
		master:        master,
	}
	r.regions[reg.ID] = reg
	// Team: the encountering thread plus n-1 pool workers.
	reg.Members = append(reg.Members, master)
	for i := 1; i < n; i++ {
		w := r.grabWorker(reg)
		if w == nil {
			break
		}
		reg.Members = append(reg.Members, w)
	}
	for i, ts := range reg.Members {
		ts.teamStack = append(ts.teamStack, teamSnap{
			team:         ts.Team,
			threadNum:    ts.ThreadNum,
			inBarrier:    ts.inBarrier,
			barrierStart: ts.barrierStart,
			singleSeq:    ts.singleSeq,
		})
		ts.ThreadNum = i
		ts.Team = reg
		ts.inBarrier = false
		ts.singleSeq = 0
	}
	reg.implicitLive = len(reg.Members)
	r.Events.ParallelBegin(t, reg.ID, len(reg.Members), fn)
	if r.tracing() {
		r.emit(obs.PhaseBegin, t, "parallel", map[string]any{"region": reg.ID, "members": len(reg.Members), "fn": fn})
	}
	// Release the workers into the region (pendingRegion was set at claim
	// time).
	for _, ts := range reg.Members[1:] {
		ts.T.Wake()
	}
	return vm.HostResult{Ret: desc}
}

// grabWorker claims a parked pool worker for reg, creating one if the pool
// is exhausted.
func (r *Runtime) grabWorker(reg *Region) *ThreadState {
	for _, w := range r.workers {
		if w.Team == nil && w.pendingRegion == nil {
			// Claim with pendingRegion (the wake token) so the next
			// grab in the same fork skips this worker.
			w.pendingRegion = reg
			return w
		}
	}
	if r.workerAddr == 0 {
		return nil
	}
	t := r.M.NewThread(r.workerAddr, 0)
	w := r.ts(t)
	w.Worker = true
	w.pendingRegion = reg
	// Workers start parked: they block in __kmp_worker_wait on first run.
	r.workers = append(r.workers, w)
	return w
}

func (r *Runtime) hWorkerWait(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	if reg := ts.pendingRegion; reg != nil {
		ts.pendingRegion = nil
		return vm.HostResult{Ret: reg.Desc}
	}
	return vm.HostResult{Action: vm.HostBlock, Reason: "worker parked"}
}

func (r *Runtime) hImplicitBegin(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	reg := ts.Team
	if reg == nil {
		panic("omp: implicit_begin outside a region")
	}
	r.nextTaskID++
	task := &Task{
		ID:     r.nextTaskID,
		Region: reg,
		Flags:  ompt.FlagImplicit,
		Parent: ts.cur,
		State:  TaskRunning,
		depMap: make(map[uint64]*depSlot),
	}
	r.tasksByID[task.ID] = task
	ts.taskStack = append(ts.taskStack, ts.cur)
	ts.cur = task
	r.Events.ImplicitBegin(t, reg.ID, task.ID, ts.ThreadNum)
	if r.tracing() {
		r.emit(obs.PhaseBegin, t, "implicit", map[string]any{"task": task.ID, "region": reg.ID, "fn": reg.Fn})
	}
	return vm.HostResult{Ret: reg.Desc}
}

func (r *Runtime) hImplicitEnd(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	reg := ts.Team
	task := ts.cur
	task.State = TaskCompleted
	ts.cur = ts.taskStack[len(ts.taskStack)-1]
	ts.taskStack = ts.taskStack[:len(ts.taskStack)-1]
	r.Events.ImplicitEnd(t, reg.ID, task.ID)
	if r.tracing() {
		r.emit(obs.PhaseEnd, t, "implicit", map[string]any{"task": task.ID, "region": reg.ID})
	}
	reg.implicitLive--
	// Restore the enclosing team context (nested regions) or leave the
	// team (top level / pool workers).
	snap := ts.teamStack[len(ts.teamStack)-1]
	ts.teamStack = ts.teamStack[:len(ts.teamStack)-1]
	ts.Team = snap.team
	ts.ThreadNum = snap.threadNum
	ts.inBarrier = snap.inBarrier
	ts.barrierStart = snap.barrierStart
	ts.singleSeq = snap.singleSeq
	if reg.implicitLive == 0 {
		reg.master.T.Wake()
	}
	return vm.HostResult{}
}

// hJoinWait is polled by the master (R0 = region desc) until every implicit
// task of the region has ended; it returns 0 while waiting (the prelude
// loops) and 1 once the region is over.
func (r *Runtime) hJoinWait(m *vm.Machine, t *vm.Thread) vm.HostResult {
	desc := t.Regs[guest.R0]
	regID := m.Mem.Load(desc+rdID, 8)
	reg := r.regions[regID]
	if reg != nil && reg.implicitLive > 0 {
		return vm.HostResult{Ret: 0, Action: vm.HostBlock, Reason: "join barrier"}
	}
	delete(r.regions, regID)
	r.Events.ParallelEnd(t, regID)
	if r.tracing() {
		r.emit(obs.PhaseEnd, t, "parallel", map[string]any{"region": regID})
	}
	r.Pool.Free(desc)
	return vm.HostResult{Ret: 1}
}

// --- misc queries ---

func (r *Runtime) hGetThreadNum(m *vm.Machine, t *vm.Thread) vm.HostResult {
	return vm.HostResult{Ret: uint64(r.ts(t).ThreadNum)}
}

func (r *Runtime) hGetNumThreads(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	if ts.Team == nil {
		return vm.HostResult{Ret: 1}
	}
	return vm.HostResult{Ret: uint64(len(ts.Team.Members))}
}

func (r *Runtime) hSingleEnter(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	ts.singleSeq++
	reg := ts.Team
	if reg == nil {
		return vm.HostResult{Ret: 1}
	}
	if reg.singleClaimed[ts.singleSeq] {
		return vm.HostResult{Ret: 0}
	}
	reg.singleClaimed[ts.singleSeq] = true
	return vm.HostResult{Ret: 1}
}

func (r *Runtime) hCriticalEnter(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	id := t.Regs[guest.R0]
	if owner := r.critOwner[id]; owner != nil && owner != ts {
		r.critQueue[id] = append(r.critQueue[id], ts)
		return vm.HostResult{Action: vm.HostBlock, Reason: fmt.Sprintf("critical %d", id)}
	}
	r.critOwner[id] = ts
	r.Events.CriticalAcquire(t, id)
	return vm.HostResult{Ret: 1}
}

func (r *Runtime) hCriticalExit(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	id := t.Regs[guest.R0]
	if r.critOwner[id] != ts {
		panic("omp: critical exit by non-owner")
	}
	delete(r.critOwner, id)
	r.Events.CriticalRelease(t, id)
	if q := r.critQueue[id]; len(q) > 0 {
		next := q[0]
		r.critQueue[id] = q[1:]
		next.T.Wake()
	}
	return vm.HostResult{}
}
