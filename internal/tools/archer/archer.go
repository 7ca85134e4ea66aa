// Package archer simulates Archer (Atzeni et al., IPDPS'16): a
// ThreadSanitizer-based, compile-time-instrumented, *thread-centric* data
// race detector with OpenMP sync annotations.
//
// The algorithm is an online vector-clock race detector: every thread owns a
// clock, runtime synchronizations perform release/acquire transfers, and
// each instrumented access is checked against per-address shadow state.
//
// Its structural weakness — the reason the paper builds Taskgrind — is
// thread-centricity: two accesses by the same thread are always ordered by
// program order, so tasks the runtime serializes (single-thread execution,
// undeferred tasks) can never race. That is where Archer's false negatives
// in Table I/II come from, and they emerge from this implementation rather
// than being hard-coded.
package archer

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/ompt"
	"repro/internal/vex"
	"repro/internal/vm"
)

// VC is a vector clock indexed by thread id.
type VC []uint32

func (v VC) clone() VC { return append(VC(nil), v...) }

// ensure grows the clock to cover tid.
func (v *VC) ensure(tid int) {
	for len(*v) <= tid {
		*v = append(*v, 0)
	}
}

// acquire merges o into v (pointwise max).
func (v *VC) acquire(o VC) {
	v.ensure(len(o) - 1)
	for i, c := range o {
		if c > (*v)[i] {
			(*v)[i] = c
		}
	}
}

// covers reports whether epoch (tid, clk) happened-before v.
func (v VC) covers(tid int, clk uint32) bool {
	return tid < len(v) && v[tid] >= clk
}

// maxTrackedThreads bounds the threads whose reads a granule remembers (like
// TSan's fixed shadow-cell count).
const maxTrackedThreads = 16

// readerMask has one bit per tracked thread.
type readerMask uint16

// The mask must have exactly maxTrackedThreads bits.
var _ = [1]struct{}{}[unsafe.Sizeof(readerMask(0))*8-maxTrackedThreads]

// cell is the 16-byte shadow header of one 8-byte granule: the last write's
// epoch and the threads that have read the granule since that write.
// wClk == 0 means no recorded write (thread clocks start at 1). A thread's
// read slot for the granule is meaningful only while its bit is set.
type cell struct {
	wPC     uint64
	wClk    uint32
	wTid    uint16
	readers readerMask
}

type readSlot struct {
	clk uint32
	pc  uint64
}

// readColumn holds one thread's latest read of each granule of a page.
type readColumn [512]readSlot

// shadowPage shadows 4 KiB of guest memory: a header per granule and a read
// column per thread, allocated on that thread's first read in the page. The
// column pointers come first, so the collector scans 128 B of a page rather
// than all of it.
type shadowPage struct {
	reads [maxTrackedThreads]*readColumn
	cells [512]cell
}

// Report is one deduplicated race (by program-counter pair).
type Report struct {
	PCA, PCB uint64
	Addr     uint64
	Kind     string
}

// Archer is the tool plugin.
type Archer struct {
	c *dbi.Core

	clocks   []*VC
	shadow   map[uint64]*shadowPage
	lastPage uint64
	lastPtr  *shadowPage
	taskAcq  map[uint64]VC
	taskEnd  map[uint64]VC
	deps     map[uint64][]uint64
	childs   map[uint64][]uint64
	forkVC   map[uint64]VC
	lastsVC  map[uint64][]VC
	barVC    map[[2]uint64][]VC
	lockVC   map[uint64]VC
	groupAt  map[uint64][]int
	taskSeq  int
	taskPar  map[uint64]uint64
	seqOf    map[uint64]int

	gslots map[uint64]*gslot

	seen    map[[2]uint64]bool
	Reports []Report
}

// New creates an Archer instance.
func New() *Archer {
	return &Archer{
		shadow:  make(map[uint64]*shadowPage),
		taskAcq: make(map[uint64]VC),
		taskEnd: make(map[uint64]VC),
		deps:    make(map[uint64][]uint64),
		childs:  make(map[uint64][]uint64),
		forkVC:  make(map[uint64]VC),
		lastsVC: make(map[uint64][]VC),
		barVC:   make(map[[2]uint64][]VC),
		lockVC:  make(map[uint64]VC),
		groupAt: make(map[uint64][]int),
		taskPar: make(map[uint64]uint64),
		seqOf:   make(map[uint64]int),
		seen:    make(map[[2]uint64]bool),
	}
}

// Name implements dbi.Tool.
func (a *Archer) Name() string { return "archer" }

// RaceCount returns the number of distinct reports (TSan dedups by stack
// pair; we dedup by PC pair).
func (a *Archer) RaceCount() int { return len(a.Reports) }

// Attach implements dbi.Attacher: free clears the shadow for the block (the
// TSan allocator interceptor behaviour that avoids recycling FPs).
func (a *Archer) Attach(c *dbi.Core) {
	a.c = c
	orig, err := c.M.RedirectHost("free", nil)
	if err == nil && orig != nil {
		_, _ = c.M.RedirectHost("free", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
			addr := t.Regs[guest.R0]
			if blk := c.FindBlock(addr); blk != nil && blk.Addr == addr {
				a.clearShadow(addr, blk.Size)
			}
			return orig(m, t)
		})
	}
	c.M.ExtraFootprint = func() uint64 {
		return a.ShadowFootprint() + c.CacheFootprint()
	}
}

// ShadowFootprint reports the shadow memory of TSan's model: four 8-byte
// shadow words (32 B) per 8-byte granule, on direct-mapped pages of 4 KiB of
// guest memory. It is a model, not the host bytes: a page here holds 8 KiB of
// headers and 128 B of column pointers, plus 8 KiB for each thread that has
// read in it.
func (a *Archer) ShadowFootprint() uint64 {
	return uint64(len(a.shadow)) * 512 * 32
}

// clearShadow forgets every access to [addr, addr+size) (the allocator
// interceptor's reset on free). It creates no page.
func (a *Archer) clearShadow(addr, size uint64) {
	last := (addr + size - 1) >> 3
	for g := addr >> 3; g <= last; {
		end := min(last, g|511)
		if pg := a.shadow[g>>9]; pg != nil {
			clear(pg.cells[g&511 : end&511+1])
		}
		g = end + 1
	}
}

// vc returns the thread's clock, initializing epoch 1.
func (a *Archer) vc(t *vm.Thread) *VC {
	for len(a.clocks) <= t.ID {
		a.clocks = append(a.clocks, nil)
	}
	c := a.clocks[t.ID]
	if c == nil {
		n := VC{}
		n.ensure(t.ID)
		n[t.ID] = 1
		c = &n
		a.clocks[t.ID] = c
	}
	return c
}

// pageAt returns the shadow page holding granule g, with a one-page cache
// for the streaming accesses numeric kernels make.
func (a *Archer) pageAt(g uint64) *shadowPage {
	pageIdx := g >> 9
	if a.lastPtr == nil || pageIdx != a.lastPage {
		pg := a.shadow[pageIdx]
		if pg == nil {
			pg = new(shadowPage)
			a.shadow[pageIdx] = pg
		}
		a.lastPage, a.lastPtr = pageIdx, pg
	}
	return a.lastPtr
}

// release snapshots the thread clock and advances its own component.
func (a *Archer) release(t *vm.Thread) VC {
	c := a.vc(t)
	snap := c.clone()
	(*c)[t.ID]++
	return snap
}

// ThreadStart implements dbi.Tool.
func (a *Archer) ThreadStart(t *vm.Thread) { a.vc(t) }

// ThreadExit implements dbi.Tool.
func (a *Archer) ThreadExit(t *vm.Thread) {}

// Fini implements dbi.Tool (analysis is online; nothing to do).
func (a *Archer) Fini(c *dbi.Core) { a.sortReports() }

func (a *Archer) sortReports() {
	sort.Slice(a.Reports, func(i, j int) bool {
		if a.Reports[i].PCA != a.Reports[j].PCA {
			return a.Reports[i].PCA < a.Reports[j].PCA
		}
		return a.Reports[i].PCB < a.Reports[j].PCB
	})
}

// AccessHooks implements dbi.CompileTimeTool: Archer's checks are compiled
// into the program, so it runs on the direct engine — an order of magnitude
// cheaper than heavyweight DBI (the 10x-vs-100x gap of Table II).
func (a *Archer) AccessHooks() (vm.AccessHook, vm.AccessHook) {
	load := func(t *vm.Thread, addr uint64, w uint8, pc uint64) {
		a.check(t, addr, uint64(w), pc, false)
	}
	store := func(t *vm.Thread, addr uint64, w uint8, pc uint64) {
		a.check(t, addr, uint64(w), pc, true)
	}
	return load, store
}

// InstrumentsSym implements dbi.CompileTimeTool: the compiler instruments
// user code, not the OpenMP runtime.
func (a *Archer) InstrumentsSym(sym string) bool {
	return !strings.HasPrefix(sym, "__kmp") && !strings.HasPrefix(sym, "omp_")
}

// Instrument implements dbi.Tool. AccessHooks always installs the
// compile-time checks, which fixes Archer to the direct engine, so no block
// is ever translated for it.
func (a *Archer) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock { return sb }

// tracked reports whether an address is in scope (user data; the runtime
// pool is invisible to compile-time instrumentation).
func tracked(addr uint64) bool {
	return addr >= guest.DataBase &&
		!(addr >= guest.FastPoolBase && addr < guest.FastPoolLimit)
}

// check is the TSan-style shadow update for one access.
func (a *Archer) check(t *vm.Thread, addr, w, pc uint64, write bool) {
	if !tracked(addr) || t.ID >= maxTrackedThreads {
		return
	}
	myVC := *a.vc(t)
	myClk := myVC[t.ID]
	me := readerMask(1) << t.ID
	for g := addr >> 3; g <= (addr+w-1)>>3; g++ {
		pg := a.pageAt(g)
		i := g & 511
		cl := &pg.cells[i]
		// Race iff a prior access by another thread is not ordered
		// before us. Same-thread accesses are always ordered — the
		// thread-centric property.
		if !write {
			if cl.wClk != 0 && int(cl.wTid) != t.ID && !myVC.covers(int(cl.wTid), cl.wClk) {
				a.report(cl.wPC, pc, g<<3, "w/r")
			}
			col := pg.reads[t.ID]
			if col == nil {
				col = new(readColumn)
				pg.reads[t.ID] = col
			}
			col[i] = readSlot{clk: myClk, pc: pc}
			cl.readers |= me
			continue
		}
		if cl.wClk != 0 && int(cl.wTid) != t.ID && !myVC.covers(int(cl.wTid), cl.wClk) {
			a.report(cl.wPC, pc, g<<3, "w/w")
		}
		for m := cl.readers &^ me; m != 0; m &= m - 1 {
			rt := bits.TrailingZeros16(uint16(m))
			if rs := &pg.reads[rt][i]; !myVC.covers(rt, rs.clk) {
				a.report(rs.pc, pc, g<<3, "r/w")
			}
		}
		// A write supersedes prior reads.
		*cl = cell{wPC: pc, wClk: myClk, wTid: uint16(t.ID)}
	}
}

func (a *Archer) report(pcA, pcB, addr uint64, kind string) {
	if pcA > pcB {
		pcA, pcB = pcB, pcA
	}
	key := [2]uint64{pcA, pcB}
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.Reports = append(a.Reports, Report{PCA: pcA, PCB: pcB, Addr: addr, Kind: kind})
}

// ClientRequest implements dbi.Tool: OpenMP sync becomes release/acquire.
func (a *Archer) ClientRequest(t *vm.Thread, code int32, args [6]uint64) uint64 {
	switch code {
	case ompt.CRParallelBegin:
		a.forkVC[args[0]] = a.release(t)
	case ompt.CRImplicitBegin:
		a.vc(t).acquire(a.forkVC[args[0]])
	case ompt.CRImplicitEnd:
		a.lastsVC[args[0]] = append(a.lastsVC[args[0]], a.release(t))
	case ompt.CRParallelEnd:
		for _, v := range a.lastsVC[args[0]] {
			a.vc(t).acquire(v)
		}
	case ompt.CRTaskCreate:
		a.taskSeq++
		a.taskAcq[args[0]] = a.release(t)
		a.taskPar[args[0]] = args[1]
		a.seqOf[args[0]] = a.taskSeq
		a.childs[args[1]] = append(a.childs[args[1]], args[0])
	case ompt.CRTaskDepAddr:
		// Archer's TSan annotations hash dependence addresses *globally*
		// (no sibling scoping), so dependences between non-sibling tasks
		// wrongly synchronize them — its FN on DRB173.
		a.globalDep(args[0], args[1], args[2])
	case ompt.CRTaskBegin:
		a.vc(t).acquire(a.taskAcq[args[0]])
		for _, p := range a.deps[args[0]] {
			a.vc(t).acquire(a.taskEnd[p])
		}
	case ompt.CRTaskEnd:
		a.taskEnd[args[0]] = a.release(t)
	case ompt.CRTaskWaitEnd, ompt.CRTaskWaitDepsEnd:
		// Plain taskwait acquires every child. Archer's runtime
		// annotation treats the OpenMP 5.0 dependent taskwait the same
		// way (over-synchronization) — its FN on DRB165.
		for _, c := range a.childs[args[0]] {
			a.vc(t).acquire(a.taskEnd[c])
		}
	case ompt.CRTaskGroupBegin:
		a.groupAt[args[0]] = append(a.groupAt[args[0]], a.taskSeq)
	case ompt.CRTaskGroupEnd:
		starts := a.groupAt[args[0]]
		if len(starts) == 0 {
			break
		}
		start := starts[len(starts)-1]
		a.groupAt[args[0]] = starts[:len(starts)-1]
		for id, seq := range a.seqOf {
			if seq > start && a.descends(id, args[0]) {
				a.vc(t).acquire(a.taskEnd[id])
			}
		}
	case ompt.CRBarrierBegin:
		k := [2]uint64{args[0], args[1]}
		a.barVC[k] = append(a.barVC[k], a.release(t))
	case ompt.CRBarrierEnd:
		k := [2]uint64{args[0], args[1] - 1}
		for _, v := range a.barVC[k] {
			a.vc(t).acquire(v)
		}
	case ompt.CRCriticalAcquire, ompt.CRMutexAcquire:
		a.vc(t).acquire(a.lockVC[args[0]])
	case ompt.CRCriticalRelease, ompt.CRMutexRelease:
		a.lockVC[args[0]] = a.release(t)
	case ompt.CRCondSignal, ompt.CRCondBroadcast:
		a.lockVC[^args[0]] = a.release(t)
	case ompt.CRCondWait:
		a.vc(t).acquire(a.lockVC[^args[0]])
	case ompt.CRRelease:
		a.lockVC[^args[0]] = a.release(t)
	case ompt.CRAcquire:
		a.vc(t).acquire(a.lockVC[^args[0]])
	}
	return 1
}

// globalDep records dependence predecessors through one global per-address
// slot (last writers + readers since).
func (a *Archer) globalDep(taskID, addr, kind uint64) {
	if a.gslots == nil {
		a.gslots = make(map[uint64]*gslot)
	}
	s := a.gslots[addr]
	if s == nil {
		s = &gslot{}
		a.gslots[addr] = s
	}
	add := func(ids []uint64) {
		for _, id := range ids {
			if id != taskID {
				a.deps[taskID] = append(a.deps[taskID], id)
			}
		}
	}
	if kind == ompt.DepIn {
		add(s.writers)
		s.readers = append(s.readers, taskID)
		return
	}
	add(s.writers)
	add(s.readers)
	s.writers = []uint64{taskID}
	s.readers = nil
}

type gslot struct {
	writers []uint64
	readers []uint64
}

func (a *Archer) descends(id, ancestor uint64) bool {
	for cur := id; cur != 0; cur = a.taskPar[cur] {
		if a.taskPar[cur] == ancestor {
			return true
		}
	}
	return false
}

// String renders the reports TSan-style.
func (a *Archer) String() string {
	var b strings.Builder
	for i, r := range a.Reports {
		fmt.Fprintf(&b, "==%d== ThreadSanitizer: data race (%s) %s <-> %s at 0x%x\n",
			i+1, r.Kind, a.c.M.Image.Locate(r.PCA), a.c.M.Image.Locate(r.PCB), r.Addr)
	}
	fmt.Fprintf(&b, "== %d race report(s)\n", len(a.Reports))
	return b.String()
}
