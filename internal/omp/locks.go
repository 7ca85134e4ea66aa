package omp

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Guest-level mutex/condvar primitives. Like the task deques, descriptor
// state lives in *guest memory* (allocated from the __kmp fast pool), so the
// lock word is a tool-visible location: the emitted __kmpc_mutex_* wrappers
// load it on every attempt, and a tool without the __kmp ignore-list drowns
// in runtime-internal accesses (§IV-A, organically). Policy — who blocks,
// who is handed the lock — is host calls, playing the futex role.
//
// Handoff is seed-deterministic: with more than one waiter the wakeup target
// is drawn from the scheduler PRNG (vm.SchedRand), so lock handoff order is
// a pure function of (program, seed) and replays byte-for-byte. Lock-free
// programs never reach a multi-waiter queue and therefore never perturb the
// PRNG stream — the solo-loop fast path is untouched.

// Mutex descriptor layout in guest memory.
const (
	// mxWord: the lock word — 0 free, 1 held. Read by guest wrappers.
	mxWord = 0
	// mxOwner: holder's thread id + 1 (0 = none).
	mxOwner = 8
	// mxWaiters: current queue length (guest-visible contention gauge).
	mxWaiters = 16
	mxLen     = 24
)

// Condvar descriptor layout in guest memory.
const (
	// cvSeq: signal generation, bumped on every signal/broadcast. The
	// waiter's wrapper reads it each poll — the tool-visible handoff trace.
	cvSeq = 0
	// cvWaiters: current queue length.
	cvWaiters = 8
	cvLen     = 16
)

// Condvar wait protocol states (ThreadState.condState).
const (
	condIdle uint8 = iota
	// condQueued: blocked on the condvar, not yet signalled.
	condQueued
	// condSignaled: a signal picked this waiter; its next poll returns.
	condSignaled
)

// hMutexInit allocates a mutex descriptor from the fast pool and returns its
// guest address (0 on exhaustion, like any other pool failure).
func (r *Runtime) hMutexInit(m *vm.Machine, t *vm.Thread) vm.HostResult {
	addr := r.Pool.Alloc(mxLen)
	if addr == 0 {
		r.AllocFailures++
		return vm.HostResult{Ret: 0}
	}
	r.mapAlloc(m, addr)
	m.Mem.Store(addr+mxWord, 8, 0)
	m.Mem.Store(addr+mxOwner, 8, 0)
	m.Mem.Store(addr+mxWaiters, 8, 0)
	return vm.HostResult{Ret: addr}
}

// hMutexLock attempts to take the mutex at R0. Contenders queue and block;
// a woken waiter's retry loop re-attempts (another thread may have barged in
// between the handoff and the retry — that is the schedule-dependent part).
func (r *Runtime) hMutexLock(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	addr := t.Regs[guest.R0]
	if m.Mem.Load(addr+mxWord, 8) == 0 {
		m.Mem.Store(addr+mxWord, 8, 1)
		m.Mem.Store(addr+mxOwner, 8, uint64(t.ID)+1)
		r.MutexAcquires++
		r.Events.MutexAcquire(t, addr)
		if r.tracing() {
			r.emit(obs.PhaseBegin, t, "mutex", map[string]any{"addr": addr})
		}
		return vm.HostResult{Ret: 1}
	}
	if m.Mem.Load(addr+mxOwner, 8) == uint64(t.ID)+1 {
		// Recursive acquire by the holder: a no-op, counted once.
		return vm.HostResult{Ret: 1}
	}
	r.MutexContended++
	r.mutexQueue[addr] = append(r.mutexQueue[addr], ts)
	m.Mem.Store(addr+mxWaiters, 8, uint64(len(r.mutexQueue[addr])))
	return vm.HostResult{Action: vm.HostBlock, Reason: fmt.Sprintf("mutex 0x%x", addr)}
}

// hMutexTrylock is the non-blocking attempt. The TrylockFail injector makes
// it fail even when the lock is free (the POSIX "weak trylock").
func (r *Runtime) hMutexTrylock(m *vm.Machine, t *vm.Thread) vm.HostResult {
	addr := t.Regs[guest.R0]
	if r.TrylockFail != nil && r.TrylockFail() {
		r.TrylocksFailed++
		return vm.HostResult{Ret: 0}
	}
	if m.Mem.Load(addr+mxWord, 8) != 0 {
		return vm.HostResult{Ret: 0}
	}
	m.Mem.Store(addr+mxWord, 8, 1)
	m.Mem.Store(addr+mxOwner, 8, uint64(t.ID)+1)
	r.MutexAcquires++
	r.Events.MutexAcquire(t, addr)
	if r.tracing() {
		r.emit(obs.PhaseBegin, t, "mutex", map[string]any{"addr": addr, "try": true})
	}
	return vm.HostResult{Ret: 1}
}

// hMutexUnlock releases the mutex at R0 and wakes one waiter.
func (r *Runtime) hMutexUnlock(m *vm.Machine, t *vm.Thread) vm.HostResult {
	addr := t.Regs[guest.R0]
	r.releaseMutex(m, t, addr)
	return vm.HostResult{}
}

// releaseMutex clears the guest lock state, raises the release event and
// hands off to a waiter (shared by unlock and cond-wait).
func (r *Runtime) releaseMutex(m *vm.Machine, t *vm.Thread, addr uint64) {
	if m.Mem.Load(addr+mxOwner, 8) != uint64(t.ID)+1 {
		panic("omp: mutex unlock by non-owner")
	}
	m.Mem.Store(addr+mxWord, 8, 0)
	m.Mem.Store(addr+mxOwner, 8, 0)
	r.Events.MutexRelease(t, addr)
	if r.tracing() {
		r.emit(obs.PhaseEnd, t, "mutex", map[string]any{"addr": addr})
	}
	r.wakeMutexWaiter(m, addr)
}

// wakeMutexWaiter picks the handoff target. With one waiter the choice is
// forced; with several it is drawn from the scheduler PRNG, and the
// LockDelay injector rotates the pick to model a delayed wakeup losing to
// another contender. Every unlock with a non-empty queue wakes exactly one
// waiter, so no wakeup is ever lost.
func (r *Runtime) wakeMutexWaiter(m *vm.Machine, addr uint64) {
	q := r.mutexQueue[addr]
	if len(q) == 0 {
		return
	}
	i := 0
	if len(q) > 1 {
		i = int(m.SchedRand() % uint64(len(q)))
	}
	if r.LockDelay != nil && r.LockDelay() {
		i = (i + 1) % len(q)
	}
	next := q[i]
	r.mutexQueue[addr] = append(q[:i:i], q[i+1:]...)
	m.Mem.Store(addr+mxWaiters, 8, uint64(len(r.mutexQueue[addr])))
	r.MutexHandoffs++
	next.T.Wake()
}

// hCondInit allocates a condvar descriptor from the fast pool.
func (r *Runtime) hCondInit(m *vm.Machine, t *vm.Thread) vm.HostResult {
	addr := r.Pool.Alloc(cvLen)
	if addr == 0 {
		r.AllocFailures++
		return vm.HostResult{Ret: 0}
	}
	r.mapAlloc(m, addr)
	m.Mem.Store(addr+cvSeq, 8, 0)
	m.Mem.Store(addr+cvWaiters, 8, 0)
	return vm.HostResult{Ret: addr}
}

// hCondWait implements one poll of the wait loop (R0=cond, R1=mutex). The
// first call releases the mutex and blocks; a signalled waiter's next call
// returns 1 and raises the happens-before acquire. The LockSpurious injector
// returns immediately without queuing — a POSIX spurious wakeup, with no
// CondWait event because there is no matching signal.
func (r *Runtime) hCondWait(m *vm.Machine, t *vm.Thread) vm.HostResult {
	ts := r.ts(t)
	cond := t.Regs[guest.R0]
	mutex := t.Regs[guest.R1]
	switch ts.condState {
	case condSignaled:
		ts.condState = condIdle
		r.Events.CondWait(t, cond, mutex)
		return vm.HostResult{Ret: 1}
	case condQueued:
		// Still waiting (woken spuriously by the scheduler): re-block.
		return vm.HostResult{Action: vm.HostBlock, Reason: fmt.Sprintf("cond 0x%x", cond)}
	}
	r.CondWaits++
	r.releaseMutex(m, t, mutex)
	if r.LockSpurious != nil && r.LockSpurious() {
		r.CondSpurious++
		return vm.HostResult{Ret: 1}
	}
	ts.condState = condQueued
	r.condQueue[cond] = append(r.condQueue[cond], ts)
	m.Mem.Store(cond+cvWaiters, 8, uint64(len(r.condQueue[cond])))
	return vm.HostResult{Action: vm.HostBlock, Reason: fmt.Sprintf("cond 0x%x", cond)}
}

// hCondSignal bumps the generation word and wakes one waiter, chosen from
// the scheduler PRNG when several are queued. Signalling with no waiters is
// a lost signal, as in POSIX.
func (r *Runtime) hCondSignal(m *vm.Machine, t *vm.Thread) vm.HostResult {
	cond := t.Regs[guest.R0]
	m.Mem.Store(cond+cvSeq, 8, m.Mem.Load(cond+cvSeq, 8)+1)
	r.CondSignals++
	r.Events.CondSignal(t, cond)
	q := r.condQueue[cond]
	if len(q) > 0 {
		i := 0
		if len(q) > 1 {
			i = int(m.SchedRand() % uint64(len(q)))
		}
		w := q[i]
		r.condQueue[cond] = append(q[:i:i], q[i+1:]...)
		m.Mem.Store(cond+cvWaiters, 8, uint64(len(r.condQueue[cond])))
		w.condState = condSignaled
		w.T.Wake()
	}
	return vm.HostResult{}
}

// hCondBroadcast wakes every waiter in queue order.
func (r *Runtime) hCondBroadcast(m *vm.Machine, t *vm.Thread) vm.HostResult {
	cond := t.Regs[guest.R0]
	m.Mem.Store(cond+cvSeq, 8, m.Mem.Load(cond+cvSeq, 8)+1)
	r.CondSignals++
	r.Events.CondBroadcast(t, cond)
	for _, w := range r.condQueue[cond] {
		w.condState = condSignaled
		w.T.Wake()
	}
	delete(r.condQueue, cond)
	m.Mem.Store(cond+cvWaiters, 8, 0)
	return vm.HostResult{}
}
