package omp

import (
	"sync"

	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/ompt"
)

// This file is the "compiler front end" for OpenMP constructs: helpers that
// emit the guest-code sequences Clang would generate for the corresponding
// pragmas (task allocation, payload capture, dependence arrays on the
// caller's stack, fork calls). Benchmarks are written against these helpers.
//
// Register conventions inside emitted sequences: R8 is the payload pointer
// handed to Fill callbacks, R9/R10 are scratch for Dep/Fill emitters, and
// emitted sequences preserve SP/FP across the whole construct.

// NewProgram creates a builder whose image begins with the runtime
// prelude: the image equals the one EmitPrelude on a fresh builder gives,
// but the prelude is linked once per process and shared read-only, so the
// program emits, resolves and encodes only its own code.
func NewProgram() *gbuild.Builder { return gbuild.NewFrom(prelude()) }

var prelude = sync.OnceValue(func() *gbuild.Prelude {
	p, err := gbuild.NewPrelude(EmitPrelude)
	if err != nil {
		panic(err)
	}
	return p
})

// Parallel emits `#pragma omp parallel num_threads(n)` running microtask
// with the argument currently in argReg (pass guest.R1 to use R1 as-is).
func Parallel(f *gbuild.Func, microtask string, argReg uint8, nthreads int) {
	if argReg != guest.R1 {
		f.Mov(guest.R1, argReg)
	}
	f.LoadSym(guest.R0, microtask)
	f.Ldi(guest.R2, int32(nthreads))
	f.Call("__kmpc_fork_call")
}

// Dep describes one task dependence: Emit must leave the dependence address
// in dst (scratch allowed: R9, R10).
type Dep struct {
	Kind uint64
	Emit func(f *gbuild.Func, dst uint8)
}

// DepSym builds a dependence on a global symbol.
func DepSym(kind uint64, sym string) Dep {
	return Dep{Kind: kind, Emit: func(f *gbuild.Func, dst uint8) { f.LoadSym(dst, sym) }}
}

// DepSymOff builds a dependence on symbol+offset (array element).
func DepSymOff(kind uint64, sym string, off int32) Dep {
	return Dep{Kind: kind, Emit: func(f *gbuild.Func, dst uint8) {
		f.LoadSym(dst, sym)
		f.Addi(dst, dst, off)
	}}
}

// DepLocal builds a dependence on the current frame slot fp-off.
func DepLocal(kind uint64, off int32) Dep {
	return Dep{Kind: kind, Emit: func(f *gbuild.Func, dst uint8) { f.LocalAddr(dst, off) }}
}

// TaskOpts configures EmitTask.
type TaskOpts struct {
	// Fn is the task body function (receives the payload pointer in R0).
	Fn string
	// PayloadBytes sizes the firstprivate area copied into the descriptor.
	PayloadBytes int32
	// Fill emits the firstprivate capture: stores relative to payloadReg.
	// These stores run in *user* code, in the creating segment.
	Fill func(f *gbuild.Func, payloadReg uint8)
	// Deps lists task dependences.
	Deps []Dep
	// Flags are ompt.Flag* creation flags (detached, mergeable, ...).
	Flags uint64
}

// EmitTask emits `#pragma omp task` — allocate a descriptor from the fast
// pool, capture firstprivates into its payload, stage the dependence array
// on the caller's stack, and enqueue (running inline when the runtime
// decides the task is undeferred).
func EmitTask(f *gbuild.Func, o TaskOpts) {
	ndeps := int32(len(o.Deps))
	frame := 16*ndeps + 16 // dep array + saved descriptor slot
	f.Addi(guest.SP, guest.SP, -frame)

	// Allocate the descriptor. A NULL return (pool exhausted, possibly
	// fault-injected) skips the whole construct: the task is dropped, like
	// user code checking kmp_task_alloc's result.
	f.Ldi(guest.R0, o.PayloadBytes)
	f.LoadSym(guest.R1, o.Fn)
	f.Hcall("__kmp_task_alloc") // r0 = desc, 0 on exhaustion
	f.St(8, guest.SP, 16*ndeps, guest.R0)
	fail := f.NewLabel()
	f.Ldi(guest.R9, 0)
	f.Beq(guest.R0, guest.R9, fail)

	// Capture firstprivates (user-code stores into the payload).
	if o.Fill != nil {
		f.Addi(guest.R8, guest.R0, TDPayload)
		o.Fill(f, guest.R8)
	}

	// Stage the dependence array on the caller's stack (user-code stores,
	// like Clang's kmp_depend_info array).
	for i, d := range o.Deps {
		d.Emit(f, guest.R9)
		f.St(8, guest.SP, int32(i*16), guest.R9)
		f.Ldi(guest.R9, int32(d.Kind))
		f.St(8, guest.SP, int32(i*16+8), guest.R9)
	}

	// Enqueue.
	f.Ld(8, guest.R0, guest.SP, 16*ndeps)
	f.Mov(guest.R1, guest.SP)
	f.Ldi(guest.R2, ndeps)
	f.LdConst64(guest.R3, o.Flags)
	f.Hcall("__kmp_task_enqueue") // 0 deferred, else run inline
	skip := f.NewLabel()
	f.Ldi(guest.R9, 0)
	f.Beq(guest.R0, guest.R9, skip)
	f.Call("__kmp_invoke_task")
	f.Bind(skip)
	f.Bind(fail)
	f.Addi(guest.SP, guest.SP, frame)
}

// Taskwait emits `#pragma omp taskwait`.
func Taskwait(f *gbuild.Func) { f.Call("__kmpc_omp_taskwait") }

// ForStatic emits `#pragma omp for schedule(static)` over [0, n): each team
// member computes its contiguous chunk and runs body for every index, with
// the implicit barrier at the end. body receives the register holding the
// current index (guest.R11); it may clobber R0..R10 but must preserve
// SP/FP/R12+.
//
// Lowering (what Clang's __kmpc_for_static_init does):
//
//	tid = omp_get_thread_num(); nth = omp_get_num_threads()
//	lo = n*tid/nth; hi = n*(tid+1)/nth
//	for i = lo; i < hi; i++ { body(i) }
//	barrier
func ForStatic(f *gbuild.Func, n int32, body func(idxReg uint8)) {
	// Locals live in registers kept across the loop: R11 index, and the
	// bound parked on the stack.
	f.Call("omp_get_thread_num")
	f.Mov(guest.R11, guest.R0) // tid
	f.Call("omp_get_num_threads")
	f.Mov(guest.R10, guest.R0) // nth
	// lo = n*tid/nth
	f.Muli(guest.R9, guest.R11, n)
	f.Div(guest.R9, guest.R9, guest.R10)
	// hi = n*(tid+1)/nth
	f.Addi(guest.R11, guest.R11, 1)
	f.Muli(guest.R11, guest.R11, n)
	f.Div(guest.R11, guest.R11, guest.R10)
	// Park hi; loop with index in R11.
	f.Push(guest.R11)
	f.Mov(guest.R11, guest.R9)
	loop := f.NewLabel()
	done := f.NewLabel()
	f.Bind(loop)
	f.Ld(8, guest.R10, guest.SP, 0) // hi
	f.Bge(guest.R11, guest.R10, done)
	f.Push(guest.R11)
	body(guest.R11)
	f.Pop(guest.R11)
	f.Addi(guest.R11, guest.R11, 1)
	f.Jmp(loop)
	f.Bind(done)
	f.Pop(guest.R11)
	f.Call("__kmp_task_barrier") // the worksharing construct's barrier
}

// TaskwaitDeps emits `#pragma omp taskwait depend(...)` (OpenMP 5.0): wait
// only for the child tasks the dependences select.
func TaskwaitDeps(f *gbuild.Func, deps []Dep) {
	ndeps := int32(len(deps))
	frame := 16 * ndeps
	f.Addi(guest.SP, guest.SP, -frame)
	for i, d := range deps {
		d.Emit(f, guest.R9)
		f.St(8, guest.SP, int32(i*16), guest.R9)
		f.Ldi(guest.R9, int32(d.Kind))
		f.St(8, guest.SP, int32(i*16+8), guest.R9)
	}
	f.Mov(guest.R0, guest.SP)
	f.Ldi(guest.R1, ndeps)
	f.Call("__kmpc_omp_taskwait_deps")
	f.Addi(guest.SP, guest.SP, frame)
}

// Barrier emits `#pragma omp barrier`.
func Barrier(f *gbuild.Func) { f.Call("__kmpc_barrier") }

// Taskgroup emits `#pragma omp taskgroup { body }`.
func Taskgroup(f *gbuild.Func, body func()) {
	f.Call("__kmpc_taskgroup")
	body()
	f.Call("__kmpc_end_taskgroup")
}

// Single emits `#pragma omp single { body }` (with the implicit barrier).
func Single(f *gbuild.Func, body func()) {
	SingleNowait(f, body)
	f.Call("__kmp_task_barrier")
}

// SingleNowait emits `#pragma omp single nowait { body }`.
func SingleNowait(f *gbuild.Func, body func()) {
	f.Hcall("__kmp_single_enter")
	skip := f.NewLabel()
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, skip)
	body()
	f.Bind(skip)
}

// Critical emits `#pragma omp critical` with the given lock id.
func Critical(f *gbuild.Func, lockID int32, body func()) {
	f.Ldi(guest.R0, lockID)
	f.Call("__kmpc_critical")
	body()
	f.Ldi(guest.R0, lockID)
	f.Call("__kmpc_end_critical")
}

// MutexInit emits creation of a guest mutex, storing its handle into the
// global sym. Call it from serial code (or inside a single) before the
// threads that contend on it start — the fork edge orders the handle
// publication.
func MutexInit(f *gbuild.Func, sym string) {
	f.Call("__kmpc_mutex_init")
	f.LoadSym(guest.R1, sym)
	f.St(8, guest.R1, 0, guest.R0)
}

// loadHandle loads the lock handle stored in global sym into dst.
func loadHandle(f *gbuild.Func, sym string, dst uint8) {
	f.LoadSym(dst, sym)
	f.Ld(8, dst, dst, 0)
}

// WithMutex emits lock(sym); body; unlock(sym).
func WithMutex(f *gbuild.Func, sym string, body func()) {
	loadHandle(f, sym, guest.R0)
	f.Call("__kmpc_mutex_lock")
	body()
	loadHandle(f, sym, guest.R0)
	f.Call("__kmpc_mutex_unlock")
}

// TryMutex emits `if (trylock(sym)) { body; unlock } else { elseBody }`.
// elseBody may be nil.
func TryMutex(f *gbuild.Func, sym string, body, elseBody func()) {
	loadHandle(f, sym, guest.R0)
	f.Call("__kmpc_mutex_trylock")
	busy := f.NewLabel()
	done := f.NewLabel()
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, busy)
	body()
	loadHandle(f, sym, guest.R0)
	f.Call("__kmpc_mutex_unlock")
	f.Jmp(done)
	f.Bind(busy)
	if elseBody != nil {
		elseBody()
	}
	f.Bind(done)
}

// CondInit emits creation of a guest condvar, storing its handle into sym.
func CondInit(f *gbuild.Func, sym string) {
	f.Call("__kmpc_cond_init")
	f.LoadSym(guest.R1, sym)
	f.St(8, guest.R1, 0, guest.R0)
}

// CondWait emits wait(condSym, mutexSym): the caller must hold the mutex;
// it is released during the wait and reacquired before control returns.
// Callers must re-check their predicate in a loop (spurious wakeups).
func CondWait(f *gbuild.Func, condSym, mutexSym string) {
	loadHandle(f, condSym, guest.R0)
	loadHandle(f, mutexSym, guest.R1)
	f.Call("__kmpc_cond_wait")
}

// CondSignal emits signal(condSym).
func CondSignal(f *gbuild.Func, condSym string) {
	loadHandle(f, condSym, guest.R0)
	f.Call("__kmpc_cond_signal")
}

// CondBroadcast emits broadcast(condSym).
func CondBroadcast(f *gbuild.Func, condSym string) {
	loadHandle(f, condSym, guest.R0)
	f.Call("__kmpc_cond_broadcast")
}

// AssumeDeferrable emits the §V-B client-request annotation telling
// Taskgrind that subsequently created tasks are semantically deferrable.
func AssumeDeferrable(f *gbuild.Func, on bool) {
	v := int32(0)
	if on {
		v = 1
	}
	f.Ldi(guest.R0, v)
	f.Creq(ompt.CRAssumeDeferrable)
}
