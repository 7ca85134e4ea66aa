// Package memcheck is a second, independent tool built on the DBI framework
// — a "memcheck-lite" demonstrating that the plugin contract the paper
// describes (§II-B: "a Valgrind tool includes the Valgrind core and a
// plugin... function replacement, used for instance by the default tool
// memcheck to wrap memory allocators") supports more than race detection.
//
// It wraps malloc/free through host-call redirection, tracks block
// liveness, and instruments every access to detect:
//
//   - heap use-after-free (access to a freed block),
//   - double free / wild free,
//   - out-of-bounds access into the allocator's alignment slack
//     ("redzone-lite": bytes between the requested and rounded size),
//   - leaks at exit (live blocks, with their allocation stacks).
package memcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/vex"
	"repro/internal/vm"
)

// ErrorKind classifies findings.
type ErrorKind uint8

// Finding kinds.
const (
	UseAfterFree ErrorKind = iota
	DoubleFree
	WildFree
	RedzoneAccess
	Leak
)

// String renders the kind.
func (k ErrorKind) String() string {
	switch k {
	case UseAfterFree:
		return "use-after-free"
	case DoubleFree:
		return "double-free"
	case WildFree:
		return "wild-free"
	case RedzoneAccess:
		return "redzone-access"
	case Leak:
		return "leak"
	}
	return "?"
}

// Finding is one reported error.
type Finding struct {
	Kind ErrorKind
	// Addr is the faulting address (or the freed/leaked block address).
	Addr uint64
	// PC is the faulting guest instruction (0 for frees/leaks).
	PC uint64
	// AllocStack resolves the block's allocation site.
	AllocStack []uint64
}

// block tracks one allocation's requested size.
type block struct {
	addr, reqSize, roundSize uint64
	stack                    []uint64
	freed                    bool
}

// Memcheck is the tool plugin.
type Memcheck struct {
	dbi.NopTool
	c *dbi.Core

	// blocks sorted by address; freed blocks stay for UAF attribution.
	blocks []*block

	Findings []Finding
	seen     map[[2]uint64]bool
}

// New creates a Memcheck instance.
func New() *Memcheck {
	return &Memcheck{seen: make(map[[2]uint64]bool)}
}

// Name implements dbi.Tool.
func (mc *Memcheck) Name() string { return "memcheck" }

// Attach wraps malloc and free (Valgrind-style function replacement).
func (mc *Memcheck) Attach(c *dbi.Core) {
	mc.c = c
	origMalloc, err := c.M.RedirectHost("malloc", nil)
	if err == nil && origMalloc != nil {
		_, _ = c.M.RedirectHost("malloc", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
			req := t.Regs[guest.R0]
			res := origMalloc(m, t)
			if res.Ret != 0 {
				mc.insert(&block{
					addr: res.Ret, reqSize: req,
					roundSize: roundUp(req),
					stack:     t.StackTrace(t.PC),
				})
			}
			return res
		})
	}
	origFree, err := c.M.RedirectHost("free", nil)
	if err == nil && origFree != nil {
		_, _ = c.M.RedirectHost("free", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
			addr := t.Regs[guest.R0]
			if addr != 0 {
				switch b := mc.exact(addr); {
				case b == nil:
					mc.report(Finding{Kind: WildFree, Addr: addr})
					return vm.HostResult{} // do not corrupt the allocator
				case b.freed:
					mc.report(Finding{Kind: DoubleFree, Addr: addr, AllocStack: b.stack})
					return vm.HostResult{}
				default:
					b.freed = true
				}
			}
			return origFree(m, t)
		})
	}
}

func roundUp(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + 15) &^ 15
}

func (mc *Memcheck) insert(b *block) {
	i := sort.Search(len(mc.blocks), func(i int) bool { return mc.blocks[i].addr >= b.addr })
	// A recycled address replaces the dead entry.
	if i < len(mc.blocks) && mc.blocks[i].addr == b.addr {
		mc.blocks[i] = b
		return
	}
	mc.blocks = append(mc.blocks, nil)
	copy(mc.blocks[i+1:], mc.blocks[i:])
	mc.blocks[i] = b
}

// exact finds the block starting at addr.
func (mc *Memcheck) exact(addr uint64) *block {
	i := sort.Search(len(mc.blocks), func(i int) bool { return mc.blocks[i].addr >= addr })
	if i < len(mc.blocks) && mc.blocks[i].addr == addr {
		return mc.blocks[i]
	}
	return nil
}

// containing finds the block whose rounded span covers addr.
func (mc *Memcheck) containing(addr uint64) *block {
	i := sort.Search(len(mc.blocks), func(i int) bool { return mc.blocks[i].addr > addr })
	if i == 0 {
		return nil
	}
	b := mc.blocks[i-1]
	if addr >= b.addr && addr < b.addr+b.roundSize {
		return b
	}
	return nil
}

func (mc *Memcheck) report(f Finding) {
	key := [2]uint64{uint64(f.Kind), f.PC ^ f.Addr}
	if f.PC != 0 {
		key[1] = f.PC // dedup access errors per site
	}
	if mc.seen[key] {
		return
	}
	mc.seen[key] = true
	mc.Findings = append(mc.Findings, f)
}

// Instrument routes every load and store through the core's access-delivery
// path, batched per superblock segment.
func (mc *Memcheck) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out, _, _ := c.InstrumentAccesses(sb, mc)
	return out
}

// FlushAccesses implements dbi.AccessSink: check a batch of accesses.
func (mc *Memcheck) FlushAccesses(t *vm.Thread, b dbi.Batch) {
	for i := range b.Len() {
		mc.access(b.Addr(i), uint64(b.Wd(i)), b.PC(i))
	}
}

// access checks one memory access.
func (mc *Memcheck) access(addr, w, pc uint64) {
	if addr < guest.HeapBase || addr >= guest.HeapLimit {
		return
	}
	b := mc.containing(addr)
	if b == nil {
		return // not from malloc (runtime pools etc.)
	}
	switch {
	case b.freed:
		mc.report(Finding{Kind: UseAfterFree, Addr: addr, PC: pc, AllocStack: b.stack})
	case addr+w > b.addr+b.reqSize:
		mc.report(Finding{Kind: RedzoneAccess, Addr: addr, PC: pc, AllocStack: b.stack})
	}
}

// Fini reports leaks: blocks never freed.
func (mc *Memcheck) Fini(c *dbi.Core) {
	for _, b := range mc.blocks {
		if !b.freed {
			mc.Findings = append(mc.Findings, Finding{
				Kind: Leak, Addr: b.addr, AllocStack: b.stack,
			})
		}
	}
}

// Count returns findings of a kind.
func (mc *Memcheck) Count(kind ErrorKind) int {
	n := 0
	for _, f := range mc.Findings {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

// String renders the findings memcheck-style.
func (mc *Memcheck) String() string {
	var sb strings.Builder
	for i, f := range mc.Findings {
		fmt.Fprintf(&sb, "==%d== %s at 0x%x", i+1, f.Kind, f.Addr)
		if f.PC != 0 && mc.c != nil {
			fmt.Fprintf(&sb, " (%s)", mc.c.M.Image.Locate(f.PC))
		}
		sb.WriteString("\n")
		if len(f.AllocStack) > 0 && mc.c != nil {
			fmt.Fprintf(&sb, "     block allocated at %s\n", mc.c.M.Image.Locate(f.AllocStack[0]))
		}
	}
	fmt.Fprintf(&sb, "== %d error(s)\n", len(mc.Findings))
	return sb.String()
}
