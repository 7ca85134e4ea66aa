// Package hostlib provides the guest C library: malloc/free and friends,
// minimal formatted output, and process control, implemented as host calls.
// It plays the role of libc in the paper's setup. The heap allocator
// recycles freed blocks (LIFO), which is exactly the behaviour Taskgrind
// neutralizes by redirecting free to a no-op (§IV-B).
package hostlib

import (
	"fmt"

	"repro/internal/dbi"
	"repro/internal/gmem"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/vm"
)

// Lib is one program's host library instance.
type Lib struct {
	// Heap is the allocator behind malloc/free.
	Heap *mem.Allocator
	core *dbi.Core
}

// New creates a library with a fresh heap.
func New() *Lib {
	return &Lib{Heap: mem.New(guest.HeapBase, guest.HeapLimit)}
}

// Bind attaches the DBI core so allocations are recorded with stacks.
// It must be called after dbi.New and before the machine runs.
func (l *Lib) Bind(core *dbi.Core) { l.core = core }

// Core returns the bound core (may be nil in raw VM tests).
func (l *Lib) Core() *dbi.Core { return l.core }

// Install registers every libc entry point.
func (l *Lib) Install(reg *vm.HostRegistry) { libcHost.Install(reg, l) }

// libcHost is the libc entry points, by import name.
var libcHost = vm.HostLib[*Lib]{
	"malloc":      (*Lib).hMalloc,
	"calloc":      (*Lib).hCalloc,
	"realloc":     (*Lib).hRealloc,
	"free":        (*Lib).hFree,
	"memset":      (*Lib).hMemset,
	"memcpy":      (*Lib).hMemcpy,
	"print_str":   (*Lib).hPrintStr,
	"print_i64":   (*Lib).hPrintI64,
	"print_f64":   (*Lib).hPrintF64,
	"putchar":     (*Lib).hPutchar,
	"exit":        (*Lib).hExit,
	"abort":       (*Lib).hAbort,
	"sched_yield": (*Lib).hYield,
}

// Malloc allocates and records a block on behalf of host-side code (the
// runtime uses it for structures that must live in guest memory).
func (l *Lib) Malloc(t *vm.Thread, n uint64) uint64 {
	addr := l.Heap.Alloc(n)
	if addr != 0 {
		// Grant guest access under the strict memory model. Freed blocks
		// stay mapped (the allocator recycles them; tools report UAF).
		t.Machine().Mem.Map(addr, mem.Round(n), gmem.PermRW)
		if l.core != nil {
			l.core.RecordAlloc(addr, mem.Round(n), t.StackTrace(t.PC))
		}
	}
	return addr
}

func (l *Lib) hMalloc(m *vm.Machine, t *vm.Thread) vm.HostResult {
	return vm.HostResult{Ret: l.Malloc(t, t.Regs[guest.R0])}
}

func (l *Lib) hCalloc(m *vm.Machine, t *vm.Thread) vm.HostResult {
	n := t.Regs[guest.R0] * t.Regs[guest.R1]
	addr := l.Malloc(t, n)
	if addr != 0 {
		m.Mem.Zero(addr, mem.Round(n))
	}
	return vm.HostResult{Ret: addr}
}

func (l *Lib) hRealloc(m *vm.Machine, t *vm.Thread) vm.HostResult {
	old, n := t.Regs[guest.R0], t.Regs[guest.R1]
	if old == 0 {
		return vm.HostResult{Ret: l.Malloc(t, n)}
	}
	oldSize := l.Heap.SizeOf(old)
	addr := l.Malloc(t, n)
	if addr != 0 {
		cp := oldSize
		if n < cp {
			cp = n
		}
		m.Mem.Copy(addr, old, cp)
		l.doFree(old)
	}
	return vm.HostResult{Ret: addr}
}

// doFree releases a block through the allocator and marks the registry.
func (l *Lib) doFree(addr uint64) {
	if err := l.Heap.Free(addr); err == nil && l.core != nil {
		l.core.RecordFree(addr)
	}
}

func (l *Lib) hFree(m *vm.Machine, t *vm.Thread) vm.HostResult {
	l.doFree(t.Regs[guest.R0])
	return vm.HostResult{}
}

func (l *Lib) hMemset(m *vm.Machine, t *vm.Thread) vm.HostResult {
	dst, val, n := t.Regs[guest.R0], t.Regs[guest.R1], t.Regs[guest.R2]
	for i := uint64(0); i < n; i++ {
		m.Mem.Store(dst+i, 1, val)
	}
	return vm.HostResult{Ret: dst}
}

func (l *Lib) hMemcpy(m *vm.Machine, t *vm.Thread) vm.HostResult {
	dst, src, n := t.Regs[guest.R0], t.Regs[guest.R1], t.Regs[guest.R2]
	m.Mem.Copy(dst, src, n)
	return vm.HostResult{Ret: dst}
}

func (l *Lib) hPrintStr(m *vm.Machine, t *vm.Thread) vm.HostResult {
	fmt.Fprint(m.Stdout, m.Mem.ReadCString(t.Regs[guest.R0]))
	return vm.HostResult{}
}

func (l *Lib) hPrintI64(m *vm.Machine, t *vm.Thread) vm.HostResult {
	fmt.Fprintf(m.Stdout, "%d", int64(t.Regs[guest.R0]))
	return vm.HostResult{}
}

func (l *Lib) hPrintF64(m *vm.Machine, t *vm.Thread) vm.HostResult {
	fmt.Fprintf(m.Stdout, "%g", f64(t.Regs[guest.R0]))
	return vm.HostResult{}
}

func (l *Lib) hPutchar(m *vm.Machine, t *vm.Thread) vm.HostResult {
	fmt.Fprintf(m.Stdout, "%c", rune(t.Regs[guest.R0]))
	return vm.HostResult{}
}

func (l *Lib) hExit(m *vm.Machine, t *vm.Thread) vm.HostResult {
	return vm.HostResult{Ret: t.Regs[guest.R0], Action: vm.HostExitProgram}
}

func (l *Lib) hAbort(m *vm.Machine, t *vm.Thread) vm.HostResult {
	return vm.HostResult{Ret: 134, Action: vm.HostExitProgram}
}

func (l *Lib) hYield(m *vm.Machine, t *vm.Thread) vm.HostResult {
	return vm.HostResult{Action: vm.HostYield}
}
