package archer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/guest"
	"repro/internal/vm"
)

// slotCell is the shadow cell the reader mask replaced: 16 inline read
// slots per granule, zeroed by every write. It is the reference the
// differential test holds the shadow to.
type slotCell struct {
	wTid  int32
	wClk  uint32
	wPC   uint64
	reads [maxTrackedThreads]readSlot
}

// slotShadow is the reference detector's shadow and report list. It reads
// thread clocks from the Archer under test, whose release and acquire the
// test drives.
type slotShadow struct {
	cells   map[uint64]*slotCell
	seen    map[[2]uint64]bool
	reports []Report
}

func (r *slotShadow) cellAt(g uint64) *slotCell {
	cl := r.cells[g]
	if cl == nil {
		cl = new(slotCell)
		r.cells[g] = cl
	}
	return cl
}

func (r *slotShadow) check(a *Archer, t *vm.Thread, addr, w, pc uint64, write bool) {
	if !tracked(addr) || t.ID >= maxTrackedThreads {
		return
	}
	myVC := *a.vc(t)
	myClk := myVC[t.ID]
	for g := addr >> 3; g <= (addr+w-1)>>3; g++ {
		cl := r.cellAt(g)
		if !write {
			if cl.wClk != 0 && int(cl.wTid) != t.ID && !myVC.covers(int(cl.wTid), cl.wClk) {
				r.report(cl.wPC, pc, g<<3, "w/r")
			}
			cl.reads[t.ID] = readSlot{clk: myClk, pc: pc}
			continue
		}
		if cl.wClk != 0 && int(cl.wTid) != t.ID && !myVC.covers(int(cl.wTid), cl.wClk) {
			r.report(cl.wPC, pc, g<<3, "w/w")
		}
		for rt := range cl.reads {
			rs := &cl.reads[rt]
			if rs.clk != 0 && rt != t.ID && !myVC.covers(rt, rs.clk) {
				r.report(rs.pc, pc, g<<3, "r/w")
			}
		}
		cl.wTid, cl.wClk, cl.wPC = int32(t.ID), myClk, pc
		cl.reads = [maxTrackedThreads]readSlot{}
	}
}

func (r *slotShadow) report(pcA, pcB, addr uint64, kind string) {
	if pcA > pcB {
		pcA, pcB = pcB, pcA
	}
	key := [2]uint64{pcA, pcB}
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.reports = append(r.reports, Report{PCA: pcA, PCB: pcB, Addr: addr, Kind: kind})
}

func (r *slotShadow) free(addr, size uint64) {
	for g := addr >> 3; g <= (addr+size-1)>>3; g++ {
		delete(r.cells, g)
	}
}

// TestShadowMatchesSlotReference drives check, release/acquire and the free
// interceptor's clearing with seeded random sequences over a few hot
// granules around page boundaries, and requires the reports of the
// reference 16-slot shadow, in the same order.
func TestShadowMatchesSlotReference(t *testing.T) {
	page := guest.DataBase + 16*4096
	var hot []uint64
	for _, edge := range []uint64{page, page + 4096, page + 3*4096} {
		for off := uint64(0); off < 24; off += 4 {
			hot = append(hot, edge-12+off)
		}
	}
	var threads [maxTrackedThreads + 1]*vm.Thread
	for i := range threads {
		threads[i] = &vm.Thread{ID: i}
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := New()
		ref := &slotShadow{cells: map[uint64]*slotCell{}, seen: map[[2]uint64]bool{}}
		nthreads := 2 + rng.Intn(len(threads)-1)
		var snaps []VC
		var done []string
		for op := 0; op < 400; op++ {
			th := threads[rng.Intn(nthreads)]
			switch k := rng.Intn(20); {
			case k < 14:
				addr := hot[rng.Intn(len(hot))] + uint64(rng.Intn(8))
				w := uint64(1 + rng.Intn(8))
				pc := guest.TextBase + 8*uint64(rng.Intn(64))
				write := rng.Intn(2) == 0
				done = append(done, fmt.Sprintf("t%d write=%v 0x%x/%d pc 0x%x", th.ID, write, addr, w, pc))
				a.check(th, addr, w, pc, write)
				ref.check(a, th, addr, w, pc, write)
			case k < 16:
				snaps = append(snaps, a.release(th))
				done = append(done, fmt.Sprintf("t%d release -> snapshot %d", th.ID, len(snaps)-1))
			case k < 18:
				if len(snaps) > 0 {
					i := rng.Intn(len(snaps))
					a.vc(th).acquire(snaps[i])
					done = append(done, fmt.Sprintf("t%d acquire snapshot %d", th.ID, i))
				}
			default:
				addr := hot[rng.Intn(len(hot))]
				size := uint64(1 + rng.Intn(5000))
				done = append(done, fmt.Sprintf("free 0x%x/%d", addr, size))
				a.clearShadow(addr, size)
				ref.free(addr, size)
			}
			if !slices.Equal(a.Reports, ref.reports) {
				i := 0
				for i < min(len(a.Reports), len(ref.reports)) && a.Reports[i] == ref.reports[i] {
					i++
				}
				t.Fatalf("seed %d, op %d: report %d is %+v, the 16-slot reference's %+v (of %d and %d)\nlast operations:\n%s",
					seed, op, i, a.Reports[i:], ref.reports[i:], len(a.Reports), len(ref.reports),
					strings.Join(done[max(0, len(done)-12):], "\n"))
			}
		}
	}
}

// TestShadowPaging: a granule's page is stable, neighbouring pages are
// distinct, the footprint counts pages at the modelled 32 B a granule, and
// clearing unshadowed memory creates no page.
func TestShadowPaging(t *testing.T) {
	a := New()
	p1 := a.pageAt(100)
	if a.pageAt(100) != p1 || a.pageAt(511) != p1 {
		t.Fatal("pageAt not stable within a page")
	}
	if a.pageAt(100+512) == p1 {
		t.Fatal("different pages aliased")
	}
	if got := a.ShadowFootprint(); got != 2*512*32 {
		t.Fatalf("footprint %d, want %d", got, 2*512*32)
	}
	a.clearShadow(64<<12, 3*4096)
	if len(a.shadow) != 2 {
		t.Fatalf("clearShadow created pages: %d", len(a.shadow))
	}
}

// TestShadowCellSize pins the shadow header at 16 bytes, the size that keeps a
// page's headers at 8 KiB.
func TestShadowCellSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit hosts")
	}
	if got := unsafe.Sizeof(cell{}); got != 16 {
		t.Fatalf("archer cell is %d bytes, pinned at 16", got)
	}
}
