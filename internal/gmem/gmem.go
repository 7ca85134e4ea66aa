// Package gmem implements the guest address space: a sparse, paged, little-
// endian byte-addressable memory. Pages are allocated on first touch so huge
// virtual layouts (stacks high, heap low) cost only what is used.
//
// Footprint reports the number of resident bytes; the evaluation harness uses
// it as the "memory usage" metric for guest runs (Table II / Fig 4).
package gmem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	pageShift = 12
	// PageSize is the allocation granule (4 KiB, matching a host page).
	// Smaller granules matter for throughput: pages are zero-initialized on
	// first touch, so the granule bounds how much memclr + GC pressure a
	// short-lived guest pays per resident page.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1
)

// Memory is a sparse guest address space. It is not internally synchronized:
// the DBI scheduler serializes guest execution (one thread at a time), so all
// accesses happen from the machine loop.
//
// The address space carries a region permission map (see perm.go). With
// Strict unset (the historical, lenient behaviour) the map is bookkeeping
// only: any access allocates pages on first touch. With Strict set, Load,
// Store and Copy — the guest-visible accessors — raise a *Fault (via panic,
// recovered by the VM at the block boundary) for bytes outside a mapped
// region or lacking the needed permission, and so does ReadCString, which
// reads through Load. WriteBytes, ReadBytes and Zero are host-privileged
// (loaders, debuggers) and never fault.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// Strict enables permission checking on guest accessors.
	Strict bool

	// regions is the permission map: sorted by Lo, non-overlapping,
	// non-empty.
	regions []Region

	// tlb caches pages and their permission spans for Load and Store (see
	// tlb.go). It is host-side state, not counted in Footprint.
	tlb [tlbSize]tlbEntry
}

// New creates an empty address space (lenient: no regions, Strict off).
func New() *Memory {
	m := &Memory{pages: make(map[uint64]*[PageSize]byte)}
	for i := range m.tlb {
		m.tlb[i].idx = noPage
	}
	return m
}

// Footprint returns the number of resident bytes (touched pages times page
// size).
func (m *Memory) Footprint() uint64 {
	return uint64(len(m.pages)) * PageSize
}

// ResidentPages returns the number of touched pages.
func (m *Memory) ResidentPages() int { return len(m.pages) }

// Load reads a little-endian value of the given width (1, 2, 4 or 8 bytes),
// zero-extended to 64 bits. In strict mode an unmapped or read-protected
// access raises a *Fault.
func (m *Memory) Load(addr uint64, width uint8) uint64 {
	idx, off := addr>>pageShift, addr&pageMask
	e := &m.tlb[tlbSlot(idx)]
	// A TLB hit needs the access inside the entry's readable span under
	// Strict, and inside the page otherwise.
	lo, hi := uint64(0), uint64(PageSize)
	if m.Strict {
		lo, hi = uint64(e.lo), uint64(e.rhi)
	}
	if e.idx == idx && lo <= off && off+uint64(width) <= hi {
		if v, ok := load(e.page, off, width); ok {
			return v
		}
	}
	return m.loadSlow(addr, width)
}

// loadSlow is Load's TLB-miss path. The check comes first, so a faulting
// access allocates no page.
func (m *Memory) loadSlow(addr uint64, width uint8) uint64 {
	if m.Strict {
		m.check(addr, width, AccessRead)
	}
	off := addr & pageMask
	if off+uint64(width) <= PageSize {
		if v, ok := load(m.fill(addr), off, width); ok {
			return v
		}
		panic(fmt.Sprintf("gmem: bad load width %d", width))
	}
	// Page-straddling access: byte at a time.
	var v uint64
	for i := uint8(0); i < width; i++ {
		v |= uint64(m.page(addr + uint64(i))[(addr+uint64(i))&pageMask]) << (8 * i)
	}
	return v
}

// load reads a width-byte value at off in p; ok is false for a bad width.
func load(p *[PageSize]byte, off uint64, width uint8) (v uint64, ok bool) {
	switch width {
	case 8:
		return binary.LittleEndian.Uint64(p[off:]), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:])), true
	case 1:
		return uint64(p[off]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:])), true
	}
	return 0, false
}

// Store writes a little-endian value of the given width. In strict mode an
// unmapped or write-protected access raises a *Fault.
func (m *Memory) Store(addr uint64, width uint8, val uint64) {
	idx, off := addr>>pageShift, addr&pageMask
	e := &m.tlb[tlbSlot(idx)]
	lo, hi := uint64(0), uint64(PageSize) // as in Load, with the writable span
	if m.Strict {
		lo, hi = uint64(e.lo), uint64(e.whi)
	}
	if e.idx == idx && lo <= off && off+uint64(width) <= hi {
		if store(e.page, off, width, val) {
			return
		}
	}
	m.storeSlow(addr, width, val)
}

// storeSlow is Store's TLB-miss path, ordered like loadSlow.
func (m *Memory) storeSlow(addr uint64, width uint8, val uint64) {
	if m.Strict {
		m.check(addr, width, AccessWrite)
	}
	off := addr & pageMask
	if off+uint64(width) <= PageSize {
		if !store(m.fill(addr), off, width, val) {
			panic(fmt.Sprintf("gmem: bad store width %d", width))
		}
		return
	}
	for i := uint8(0); i < width; i++ {
		m.page(addr + uint64(i))[(addr+uint64(i))&pageMask] = byte(val >> (8 * i))
	}
}

// store writes a width-byte value at off in p; it reports false, writing
// nothing, for a bad width.
func store(p *[PageSize]byte, off uint64, width uint8, val uint64) bool {
	switch width {
	case 8:
		binary.LittleEndian.PutUint64(p[off:], val)
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(val))
	case 1:
		p[off] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(val))
	default:
		return false
	}
	return true
}

// WriteBytes copies a host byte slice into guest memory.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		off := addr & pageMask
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies guest memory into a fresh host byte slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		p := m.page(addr + uint64(i))
		off := (addr + uint64(i)) & pageMask
		c := copy(out[i:], p[off:])
		i += c
	}
	return out
}

// ReadCString reads a NUL-terminated guest string (capped at 64 KiB).
func (m *Memory) ReadCString(addr uint64) string {
	var out []byte
	for i := 0; i < 1<<16; i++ {
		b := byte(m.Load(addr+uint64(i), 1))
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr uint64, n uint64) {
	for i := uint64(0); i < n; {
		p := m.page(addr + i)
		off := (addr + i) & pageMask
		span := PageSize - off
		if span > n-i {
			span = n - i
		}
		for j := uint64(0); j < span; j++ {
			p[off+j] = 0
		}
		i += span
	}
}

// Hash returns a content digest of the address space: FNV-1a over every
// resident page's index and bytes, visiting pages in address order and
// skipping all-zero pages (an untouched page and a zeroed one digest the
// same, so the hash reflects content, not allocation history). Intended for
// differential testing: two runs with identical guest-visible memory hash
// equal.
func (m *Memory) Hash() uint64 {
	idxs := make([]uint64, 0, len(m.pages))
	for idx := range m.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, idx := range idxs {
		p := m.pages[idx]
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ uint64(byte(idx>>shift))) * prime64
		}
		for _, b := range p {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// Copy moves n bytes from src to dst (handles overlap like memmove).
func (m *Memory) Copy(dst, src uint64, n uint64) {
	if n == 0 || dst == src {
		return
	}
	if dst < src {
		for i := uint64(0); i < n; i++ {
			m.Store(dst+i, 1, m.Load(src+i, 1))
		}
	} else {
		for i := n; i > 0; i-- {
			m.Store(dst+i-1, 1, m.Load(src+i-1, 1))
		}
	}
}
