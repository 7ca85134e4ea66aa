package omp

import (
	"repro/internal/gbuild"
	"repro/internal/guest"
)

// EmitPrelude appends the guest-side runtime code to a program: the
// __kmp_* dispatch loops and the __kmpc_* entry points user code calls.
// These are genuine guest functions — the DBI framework instruments them
// like any other binary code, which is why Taskgrind needs the __kmp
// ignore-list (§IV-A). NewProgram starts programs on a copy linked once
// per process; EmitPrelude serves builders that place the prelude
// themselves (gasm's `.runtime omp`, possibly after other code).
func EmitPrelude(b *gbuild.Builder) {
	const file = "libomp.c"

	// __kmpc_fork_call(fn, arg, nthreads): run a parallel region.
	f := b.Func("__kmpc_fork_call", file)
	f.Enter(16)
	f.Hcall("__kmp_fork_setup") // r0 = region desc, 0 when the pool is exhausted
	fail := f.NewLabel()
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, fail)
	f.StLocal(8, 8, guest.R0)
	f.Call("__kmp_run_implicit")
	join := f.NewLabel()
	f.Bind(join)
	f.LdLocal(8, guest.R0, 8)
	f.Hcall("__kmp_join_wait") // 1 done, 0 keep waiting
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, join)
	f.Bind(fail)
	f.Leave()

	// __kmp_run_implicit(desc): execute this thread's implicit task, then
	// the end-of-region barrier.
	f = b.Func("__kmp_run_implicit", file)
	f.Enter(16)
	f.StLocal(8, 8, guest.R0)
	f.Hcall("__kmp_implicit_begin") // returns desc
	// Unsynchronized shared bookkeeping, like a real runtime's internal
	// counters: a benign determinacy race the ignore-list must filter.
	f.Ld(8, guest.R3, guest.R0, rdStats)
	f.Addi(guest.R3, guest.R3, 1)
	f.St(8, guest.R0, rdStats, guest.R3)
	f.Ld(8, guest.R2, guest.R0, rdFn)
	f.Ld(8, guest.R1, guest.R0, rdArg)
	f.Mov(guest.R0, guest.R1)
	f.CallReg(guest.R2) // microtask(arg)
	f.Call("__kmp_task_barrier")
	f.LdLocal(8, guest.R0, 8)
	f.Hcall("__kmp_implicit_end")
	f.Leave()

	// __kmp_worker_entry: pool worker main loop (never returns).
	f = b.Func("__kmp_worker_entry", file)
	loop := f.NewLabel()
	f.Bind(loop)
	f.Hcall("__kmp_worker_wait") // region desc, or 0 to re-poll
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, loop)
	f.Call("__kmp_run_implicit")
	f.Jmp(loop)

	// pollLoop emits the common poll-drain shape: hcall `poll` returns
	// 0 (blocked; retry), 1 (done) or a task descriptor to run.
	pollLoop := func(f *gbuild.Func, poll string) {
		f.Enter(0)
		l := f.NewLabel()
		done := f.NewLabel()
		f.Bind(l)
		f.Hcall(poll)
		f.Ldi(guest.R1, 1)
		f.Beq(guest.R0, guest.R1, done)
		f.Ldi(guest.R1, 0)
		f.Beq(guest.R0, guest.R1, l)
		f.Call("__kmp_invoke_task")
		f.Jmp(l)
		f.Bind(done)
		f.Leave()
	}

	// __kmp_task_barrier: team barrier, draining tasks.
	f = b.Func("__kmp_task_barrier", file)
	pollLoop(f, "__kmp_barrier_poll")

	// __kmpc_omp_taskwait: wait for the current task's children.
	f = b.Func("__kmpc_omp_taskwait", file)
	pollLoop(f, "__kmp_taskwait_poll")

	// __kmpc_end_taskgroup: wait for the innermost taskgroup.
	f = b.Func("__kmpc_end_taskgroup", file)
	pollLoop(f, "__kmp_taskgroup_poll")

	// __kmpc_omp_taskwait_deps(depArr, ndeps): OpenMP 5.0 dependent
	// taskwait.
	f = b.Func("__kmpc_omp_taskwait_deps", file)
	f.Enter(0)
	f.Hcall("__kmp_taskwait_deps_init")
	twd := f.NewLabel()
	twdDone := f.NewLabel()
	f.Bind(twd)
	f.Hcall("__kmp_taskwait_deps_poll")
	f.Ldi(guest.R1, 1)
	f.Beq(guest.R0, guest.R1, twdDone)
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, twd)
	f.Call("__kmp_invoke_task")
	f.Jmp(twd)
	f.Bind(twdDone)
	f.Leave()

	// __kmpc_taskgroup: open a taskgroup.
	f = b.Func("__kmpc_taskgroup", file)
	f.Hcall("__kmp_taskgroup_begin")
	f.Ret()

	// __kmpc_barrier: explicit team barrier.
	f = b.Func("__kmpc_barrier", file)
	f.Enter(0)
	f.Call("__kmp_task_barrier")
	f.Leave()

	// __kmp_invoke_task(desc): run one explicit task body.
	f = b.Func("__kmp_invoke_task", file)
	f.Enter(16)
	f.Hcall("__kmp_task_begin") // r0 = desc
	f.StLocal(8, 8, guest.R0)
	f.Ld(8, guest.R2, guest.R0, TDFn)
	f.Addi(guest.R0, guest.R0, TDPayload) // task fn gets the payload ptr
	f.CallReg(guest.R2)
	f.LdLocal(8, guest.R0, 8)
	f.Hcall("__kmp_task_end")
	f.Leave()

	// __kmpc_critical(lockID) / __kmpc_end_critical(lockID).
	f = b.Func("__kmpc_critical", file)
	f.Enter(16)
	f.StLocal(8, 8, guest.R0)
	retry := f.NewLabel()
	f.Bind(retry)
	f.LdLocal(8, guest.R0, 8)
	f.Hcall("__kmp_critical_enter") // 1 acquired, 0 retry
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, retry)
	f.Leave()

	f = b.Func("__kmpc_end_critical", file)
	f.Hcall("__kmp_critical_exit")
	f.Ret()

	// Guest-level mutexes and condvars. The descriptors live in guest
	// memory (fast pool), and every wrapper loads the lock/generation word
	// before its host call — genuine tool-visible accesses to runtime
	// internals, the §IV-A pitfall the ignore-list exists for. State
	// *mutation* stays in the host calls: a guest-side release store would
	// open a window where another thread's host call sees stale ownership.

	// __kmpc_mutex_init() -> handle (0 on pool exhaustion).
	f = b.Func("__kmpc_mutex_init", file)
	f.Hcall("__kmp_mutex_init")
	f.Ret()

	// __kmpc_mutex_lock(handle): spin-read the lock word, attempt via the
	// host call, retry after every wakeup (another contender may have
	// barged in — the schedule-dependent handoff).
	f = b.Func("__kmpc_mutex_lock", file)
	f.Enter(16)
	f.StLocal(8, 8, guest.R0)
	mlRetry := f.NewLabel()
	f.Bind(mlRetry)
	f.LdLocal(8, guest.R0, 8)
	f.Ld(8, guest.R9, guest.R0, 0) // tool-visible read of the lock word
	f.Hcall("__kmp_mutex_lock")    // 1 acquired, 0 retry
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, mlRetry)
	f.Leave()

	// __kmpc_mutex_trylock(handle) -> 1 acquired, 0 busy.
	f = b.Func("__kmpc_mutex_trylock", file)
	f.Ld(8, guest.R9, guest.R0, 0)
	f.Hcall("__kmp_mutex_trylock")
	f.Ret()

	// __kmpc_mutex_unlock(handle).
	f = b.Func("__kmpc_mutex_unlock", file)
	f.Ld(8, guest.R9, guest.R0, 0)
	f.Hcall("__kmp_mutex_unlock")
	f.Ret()

	// __kmpc_cond_init() -> handle (0 on pool exhaustion).
	f = b.Func("__kmpc_cond_init", file)
	f.Hcall("__kmp_cond_init")
	f.Ret()

	// __kmpc_cond_wait(cond, mutex): release the mutex and wait for a
	// signal (the host call blocks; 0 means keep polling), then reacquire
	// the mutex. Callers re-check their predicate — spurious wakeups are
	// allowed, and the fault injector provokes them.
	f = b.Func("__kmpc_cond_wait", file)
	f.Enter(24)
	f.StLocal(8, 8, guest.R0)
	f.StLocal(8, 16, guest.R1)
	cwPoll := f.NewLabel()
	f.Bind(cwPoll)
	f.LdLocal(8, guest.R0, 8)
	f.LdLocal(8, guest.R1, 16)
	f.Ld(8, guest.R9, guest.R0, 0) // tool-visible read of the generation word
	f.Hcall("__kmp_cond_wait")     // 1 woken, 0 keep waiting
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, cwPoll)
	f.LdLocal(8, guest.R0, 16)
	f.Call("__kmpc_mutex_lock")
	f.Leave()

	// __kmpc_cond_signal(cond) / __kmpc_cond_broadcast(cond).
	f = b.Func("__kmpc_cond_signal", file)
	f.Ld(8, guest.R9, guest.R0, 0)
	f.Hcall("__kmp_cond_signal")
	f.Ret()

	f = b.Func("__kmpc_cond_broadcast", file)
	f.Ld(8, guest.R9, guest.R0, 0)
	f.Hcall("__kmp_cond_broadcast")
	f.Ret()

	// omp_get_thread_num / omp_get_num_threads / omp_fulfill_event.
	f = b.Func("omp_get_thread_num", file)
	f.Hcall("__kmp_get_thread_num")
	f.Ret()

	f = b.Func("omp_get_num_threads", file)
	f.Hcall("__kmp_get_num_threads")
	f.Ret()

	f = b.Func("omp_fulfill_event", file)
	f.Hcall("__kmp_fulfill_event")
	f.Ret()
}
