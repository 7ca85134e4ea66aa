package gmem

import "fmt"

// Perm is a region permission bitmask. The zero value means unmapped.
type Perm uint8

// Permission bits.
const (
	PermNone Perm = 0
	PermR    Perm = 1 << 0
	PermW    Perm = 1 << 1
	PermRW   Perm = PermR | PermW
)

// String renders the permission like a /proc/maps column.
func (p Perm) String() string {
	r, w := byte('-'), byte('-')
	if p&PermR != 0 {
		r = 'r'
	}
	if p&PermW != 0 {
		w = 'w'
	}
	return string([]byte{r, w})
}

// Access classifies a memory access for fault reports.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
)

// String returns "read" or "write".
func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// Fault describes one access violation: an access that touched bytes outside
// every mapped region, or a region lacking the required permission. In strict
// mode the accessors panic with a *Fault; the VM recovers it at the basic-
// block boundary and converts it into a structured vm.GuestFault — the guest
// equivalent of SIGSEGV delivery.
type Fault struct {
	Addr   uint64
	Width  uint8
	Access Access
	// Perm is what was mapped at Addr (PermNone when unmapped).
	Perm Perm
}

// Error implements error.
func (f *Fault) Error() string {
	why := "unmapped"
	if f.Perm != PermNone {
		why = "protection " + f.Perm.String()
	}
	return fmt.Sprintf("gmem: invalid %s of size %d at 0x%x (%s)",
		f.Access, f.Width, f.Addr, why)
}

// Region is one mapped address range [Lo, Hi) with its permissions.
type Region struct {
	Lo, Hi uint64
	Perm   Perm
}

// Map grants perm over [addr, addr+n), replacing whatever the range held
// before. Zero-length maps are no-ops. Adjacent or overlapping regions with
// equal permissions coalesce, so per-allocation heap maps collapse into one
// region under a bump allocator.
func (m *Memory) Map(addr, n uint64, perm Perm) {
	if n == 0 {
		return
	}
	m.carve(addr, addr+n)
	// Insert, keeping the slice sorted by Lo.
	i := m.regionIndex(addr)
	for i < len(m.regions) && m.regions[i].Lo < addr {
		i++
	}
	m.regions = append(m.regions, Region{})
	copy(m.regions[i+1:], m.regions[i:])
	m.regions[i] = Region{Lo: addr, Hi: addr + n, Perm: perm}
	m.coalesce(i)
	m.dropSpans()
}

// Unmap revokes all permissions over [addr, addr+n).
func (m *Memory) Unmap(addr, n uint64) {
	if n == 0 {
		return
	}
	m.carve(addr, addr+n)
	m.dropSpans()
}

// Protect is Map under its POSIX name (mprotect semantics).
func (m *Memory) Protect(addr, n uint64, perm Perm) { m.Map(addr, n, perm) }

// carve removes [lo, hi) from every existing region, splitting regions that
// straddle a boundary.
func (m *Memory) carve(lo, hi uint64) {
	out := m.regions[:0]
	var add []Region
	for _, r := range m.regions {
		switch {
		case r.Hi <= lo || r.Lo >= hi:
			out = append(out, r)
		case r.Lo < lo && r.Hi > hi:
			// Straddles both ends: split in two.
			out = append(out, Region{Lo: r.Lo, Hi: lo, Perm: r.Perm})
			add = append(add, Region{Lo: hi, Hi: r.Hi, Perm: r.Perm})
		case r.Lo < lo:
			out = append(out, Region{Lo: r.Lo, Hi: lo, Perm: r.Perm})
		case r.Hi > hi:
			add = append(add, Region{Lo: hi, Hi: r.Hi, Perm: r.Perm})
		default:
			// Fully covered: dropped.
		}
	}
	out = append(out, add...)
	// add entries may land out of order relative to later regions; restore
	// the sort with a small insertion pass (add is at most one element).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Lo < out[j-1].Lo; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	m.regions = out
}

// coalesce merges region i with equal-permission neighbours.
func (m *Memory) coalesce(i int) {
	for i+1 < len(m.regions) &&
		m.regions[i].Hi == m.regions[i+1].Lo && m.regions[i].Perm == m.regions[i+1].Perm {
		m.regions[i].Hi = m.regions[i+1].Hi
		m.regions = append(m.regions[:i+1], m.regions[i+2:]...)
	}
	for i > 0 &&
		m.regions[i-1].Hi == m.regions[i].Lo && m.regions[i-1].Perm == m.regions[i].Perm {
		m.regions[i-1].Hi = m.regions[i].Hi
		m.regions = append(m.regions[:i], m.regions[i+1:]...)
		i--
	}
}

// regionIndex returns the index of the first region whose Hi is above addr
// (binary search).
func (m *Memory) regionIndex(addr uint64) int {
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.regions[mid].Hi <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PermAt returns the permission mapped at addr (PermNone when unmapped).
func (m *Memory) PermAt(addr uint64) Perm {
	i := m.regionIndex(addr)
	if i < len(m.regions) && m.regions[i].Lo <= addr {
		return m.regions[i].Perm
	}
	return PermNone
}

// Regions returns a copy of the permission map, sorted by address.
func (m *Memory) Regions() []Region {
	return append([]Region(nil), m.regions...)
}

// need returns the permission bit an access requires.
func (a Access) need() Perm {
	if a == AccessWrite {
		return PermW
	}
	return PermR
}

// CheckRange verifies that every byte of [addr, addr+n) is mapped with the
// permission the access needs, returning a *Fault describing the first
// violating byte, or nil. It is a query: it never panics, regardless of
// strict mode.
func (m *Memory) CheckRange(addr, n uint64, acc Access) *Fault {
	if n == 0 {
		return nil
	}
	need := acc.need()
	width := uint8(8)
	if n < 8 {
		width = uint8(n)
	}
	end := addr + n
	if end < addr {
		// Address-space wrap: no region spans the top of the space.
		return &Fault{Addr: addr, Width: width, Access: acc, Perm: PermNone}
	}
	for a := addr; ; {
		i := m.regionIndex(a)
		if i >= len(m.regions) || m.regions[i].Lo > a {
			return &Fault{Addr: a, Width: width, Access: acc, Perm: PermNone}
		}
		r := m.regions[i]
		if r.Perm&need != need {
			return &Fault{Addr: a, Width: width, Access: acc, Perm: r.Perm}
		}
		if end <= r.Hi {
			return nil
		}
		a = r.Hi
	}
}

// check raises a fault (panic with *Fault) for a violating guest access.
// Callers gate on m.Strict themselves so the lenient path pays no call.
func (m *Memory) check(addr uint64, width uint8, acc Access) {
	if f := m.CheckRange(addr, uint64(width), acc); f != nil {
		f.Width = width
		panic(f)
	}
}
