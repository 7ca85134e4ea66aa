package gmem

// The software TLB: a direct-mapped cache in front of the page map and the
// region list, in the manner of QEMU's softmmu TLB. Each entry maps one page
// index to its page and to the span of that page a single region maps, with
// the region's permissions folded into the span's ends. A Load or Store whose
// bytes lie inside the span of its page's entry touches neither the map nor
// the region list; anything else takes the slow path, which checks, looks
// the page up (allocating it on first touch) and refills the entry.
//
// Strict checks stay exact because a cached span only ever under-states what
// the region list grants: a span is computed from the list after the access
// passed CheckRange, and every change to the list (Map, Unmap, Protect,
// SetRegions) drops all spans. Page pointers never go stale, because pages
// are never freed.

const (
	// tlbBits sizes the TLB at 256 entries. Replaying the page trace of
	// LULESH -s 24 at 4 threads, 256 entries miss on 0.29% of guest
	// accesses, 128 on 0.51% and 64 on 1.6%.
	tlbBits = 8
	tlbSize = 1 << tlbBits

	// noPage tags an empty entry: page indices are addresses shifted right
	// by pageShift, so none reaches it.
	noPage = ^uint64(0)
)

// tlbEntry caches one page. [lo, rhi) is the part of the page the guest may
// read and [lo, whi) the part it may write, both within a single region;
// either is empty (its end at or below lo) when that permission is missing
// or the span is unknown. Lenient accessors use idx and page only.
type tlbEntry struct {
	idx          uint64
	page         *[PageSize]byte
	lo, rhi, whi uint16
}

// tlbSlot picks a page's entry by Fibonacci hashing. A plain low-bits index
// would put the first data, heap, pool and TLS pages (indices 0x1000,
// 0x8000, 0x50000, 0x60000) in one slot; the multiplicative hash spreads
// them, and consecutive pages of an array, apart.
func tlbSlot(idx uint64) uint64 {
	return idx * 0x9e3779b97f4a7c15 >> (64 - tlbBits)
}

// page returns the page containing addr, allocating it on first touch. It
// refills addr's entry on a miss, with an unknown span: it serves host
// accessors, which check no permission, and the strict slow path, which
// fills the span in itself.
func (m *Memory) page(addr uint64) *[PageSize]byte {
	idx := addr >> pageShift
	e := &m.tlb[tlbSlot(idx)]
	if e.idx != idx {
		p := m.pages[idx]
		if p == nil {
			p = new([PageSize]byte)
			m.pages[idx] = p
		}
		*e = tlbEntry{idx: idx, page: p}
	}
	return e.page
}

// fill is page for a checked guest access: under Strict it also caches the
// span of the page that addr's region maps.
func (m *Memory) fill(addr uint64) *[PageSize]byte {
	p := m.page(addr)
	if m.Strict {
		e := &m.tlb[tlbSlot(addr>>pageShift)]
		e.lo, e.rhi, e.whi = m.span(addr)
	}
	return p
}

// span returns the in-page offsets of the part of addr's page that the
// region holding addr maps: [lo, rhi) readable and [lo, whi) writable. All
// three are 0 when no region holds addr.
func (m *Memory) span(addr uint64) (lo, rhi, whi uint16) {
	i := m.regionIndex(addr)
	if i == len(m.regions) || m.regions[i].Lo > addr {
		return 0, 0, 0
	}
	r := m.regions[i]
	base := addr &^ pageMask
	l, h := uint64(0), uint64(PageSize)
	if r.Lo > base {
		l = r.Lo - base
	}
	if r.Hi-base < PageSize {
		h = r.Hi - base
	}
	lo, rhi, whi = uint16(l), uint16(l), uint16(l)
	if r.Perm&PermR != 0 {
		rhi = uint16(h)
	}
	if r.Perm&PermW != 0 {
		whi = uint16(h)
	}
	return lo, rhi, whi
}

// dropSpans forgets every cached span after the region list changed. The
// pages stay cached.
func (m *Memory) dropSpans() {
	for i := range m.tlb {
		e := &m.tlb[i]
		e.lo, e.rhi, e.whi = 0, 0, 0
	}
}
