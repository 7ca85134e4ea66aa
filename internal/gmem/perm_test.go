package gmem

import (
	"bytes"
	"testing"
)

func TestPermString(t *testing.T) {
	cases := map[Perm]string{PermNone: "--", PermR: "r-", PermW: "-w", PermRW: "rw"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Perm(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestMapCoalesces(t *testing.T) {
	m := New()
	// Adjacent equal-permission maps collapse (the bump-allocator pattern).
	m.Map(0x1000, 0x100, PermRW)
	m.Map(0x1100, 0x100, PermRW)
	m.Map(0x1200, 0x100, PermRW)
	if got := m.Regions(); len(got) != 1 || got[0].Lo != 0x1000 || got[0].Hi != 0x1300 {
		t.Fatalf("regions = %+v, want one [0x1000,0x1300)", got)
	}
	// A differing permission splits.
	m.Map(0x1300, 0x100, PermR)
	if got := m.Regions(); len(got) != 2 {
		t.Fatalf("regions = %+v, want two", got)
	}
}

func TestMapReplacesAndSplits(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRW)
	// Punch a read-only window in the middle: splits into three.
	m.Map(0x1400, 0x100, PermR)
	want := []Region{
		{Lo: 0x1000, Hi: 0x1400, Perm: PermRW},
		{Lo: 0x1400, Hi: 0x1500, Perm: PermR},
		{Lo: 0x1500, Hi: 0x2000, Perm: PermRW},
	}
	got := m.Regions()
	if len(got) != len(want) {
		t.Fatalf("regions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("region[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Restoring RW re-coalesces to one region.
	m.Protect(0x1400, 0x100, PermRW)
	if got := m.Regions(); len(got) != 1 {
		t.Fatalf("after re-protect: %+v, want one region", got)
	}
}

func TestZeroLengthRanges(t *testing.T) {
	m := New()
	m.Map(0x1000, 0, PermRW) // no-op
	if len(m.Regions()) != 0 {
		t.Fatal("zero-length Map created a region")
	}
	m.Map(0x1000, 0x100, PermRW)
	m.Unmap(0x1040, 0) // no-op
	if len(m.Regions()) != 1 {
		t.Fatal("zero-length Unmap changed the map")
	}
	if f := m.CheckRange(0x9999, 0, AccessRead); f != nil {
		t.Fatalf("zero-length check faulted: %v", f)
	}
}

func TestUnmap(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x300, PermRW)
	m.Unmap(0x1100, 0x100)
	if p := m.PermAt(0x1100); p != PermNone {
		t.Fatalf("unmapped perm = %v", p)
	}
	if p := m.PermAt(0x10ff); p != PermRW {
		t.Fatalf("left half perm = %v", p)
	}
	if p := m.PermAt(0x1200); p != PermRW {
		t.Fatalf("right half perm = %v", p)
	}
}

func TestCheckRangeBoundaries(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x100, PermRW)

	// Exactly-covered accesses at both edges pass.
	if f := m.CheckRange(0x1000, 8, AccessWrite); f != nil {
		t.Fatalf("low edge: %v", f)
	}
	if f := m.CheckRange(0x10f8, 8, AccessWrite); f != nil {
		t.Fatalf("high edge: %v", f)
	}
	// One byte past either edge faults, reporting the violating address.
	if f := m.CheckRange(0xfff, 2, AccessRead); f == nil || f.Addr != 0xfff {
		t.Fatalf("below low edge: %+v", f)
	}
	if f := m.CheckRange(0x10f9, 8, AccessRead); f == nil || f.Addr != 0x1100 {
		t.Fatalf("past high edge: %+v", f)
	}
	// A check spanning two coalescible regions passes after both are mapped.
	m.Map(0x1100, 0x100, PermRW)
	if f := m.CheckRange(0x10fc, 8, AccessWrite); f != nil {
		t.Fatalf("spanning: %v", f)
	}
}

func TestCheckRangePermissions(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x100, PermR)
	if f := m.CheckRange(0x1000, 8, AccessRead); f != nil {
		t.Fatalf("read of r-: %v", f)
	}
	f := m.CheckRange(0x1000, 8, AccessWrite)
	if f == nil || f.Perm != PermR || f.Access != AccessWrite {
		t.Fatalf("write of r-: %+v", f)
	}
	if got := f.Error(); got == "" {
		t.Fatal("empty fault message")
	}
}

func TestCheckRangeAddressWrap(t *testing.T) {
	m := New()
	m.Map(^uint64(0)-0xff, 0x100, PermRW)
	// An access wrapping past the top of the address space always faults.
	if f := m.CheckRange(^uint64(0)-3, 8, AccessRead); f == nil {
		t.Fatal("wrapping access did not fault")
	}
}

func TestStrictLoadStorePanicsWithFault(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x100, PermRW)
	m.Strict = true
	m.Store(0x1000, 8, 42)
	if got := m.Load(0x1000, 8); got != 42 {
		t.Fatalf("mapped roundtrip = %d", got)
	}
	func() {
		defer func() {
			r := recover()
			f, ok := r.(*Fault)
			if !ok {
				t.Fatalf("recovered %T (%v), want *Fault", r, r)
			}
			if f.Addr != 0xdead0000 || f.Access != AccessWrite || f.Width != 8 {
				t.Fatalf("fault = %+v", f)
			}
		}()
		m.Store(0xdead0000, 8, 1)
	}()
	// Lenient mode: the same store silently allocates.
	m.Strict = false
	m.Store(0xdead0000, 8, 1)
	if m.Load(0xdead0000, 8) != 1 {
		t.Fatal("lenient store lost")
	}
}

func TestStrictStraddlingRoundtrips(t *testing.T) {
	m := New()
	// Map a window straddling the page boundary and exercise Load/Store/Copy
	// across it with checking on.
	lo := uint64(PageSize) - 64
	m.Map(lo, 128, PermRW)
	m.Strict = true

	addr := uint64(PageSize) - 3
	m.Store(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Load(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Fatalf("straddle roundtrip = %#x", got)
	}
	// Copy across the boundary (byte-at-a-time, each byte checked).
	m.Copy(lo, addr, 8)
	want := m.ReadBytes(addr, 8)
	if got := m.ReadBytes(lo, 8); !bytes.Equal(got, want) {
		t.Fatalf("copy = %x, want %x", got, want)
	}
	// A straddling store that leaks past the window faults on the first
	// out-of-window byte.
	func() {
		defer func() {
			f, ok := recover().(*Fault)
			if !ok || f.Addr != lo+128 {
				t.Fatalf("fault = %+v", f)
			}
		}()
		m.Store(lo+128-4, 8, 1)
	}()
}

func TestHostAccessorsNeverFault(t *testing.T) {
	m := New()
	m.Strict = true // nothing mapped at all
	m.WriteBytes(0x5000, []byte{1, 2, 3})
	if got := m.ReadBytes(0x5000, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("host roundtrip = %v", got)
	}
	m.Zero(0x5000, 3)
}

func TestStrictReadCStringFaults(t *testing.T) {
	// ReadCString reads through Load, so an unterminated string running off
	// its region is a guest fault at the first unmapped byte.
	m := New()
	m.Map(0x1000, 0x10, PermRW)
	m.WriteBytes(0x1008, []byte("overrun!"))
	m.Strict = true
	f := faultOf(func() { m.ReadCString(0x1008) })
	if want := (Fault{Addr: 0x1010, Width: 1, Access: AccessRead}); f == nil || *f != want {
		t.Fatalf("fault = %+v, want %+v", f, want)
	}
}

func TestLastRegionCacheInvalidation(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x100, PermRW)
	if f := m.CheckRange(0x1000, 8, AccessRead); f != nil {
		t.Fatalf("prime: %v", f)
	}
	// Unmapping must invalidate the fast-path cache.
	m.Unmap(0x1000, 0x100)
	if f := m.CheckRange(0x1000, 8, AccessRead); f == nil {
		t.Fatal("stale cache allowed an unmapped access")
	}

	// The same through the TLB: prime it with a Store and a Load, change
	// the region list, and the next access must see the change.
	for _, tc := range []struct {
		name   string
		change func(m *Memory)
		load   *Fault // nil: the load still succeeds
		store  Fault
	}{
		{"unmap", func(m *Memory) { m.Unmap(0x1000, 0x100) },
			&Fault{Addr: 0x1008, Width: 8, Access: AccessRead}, Fault{Addr: 0x1008, Width: 8, Access: AccessWrite}},
		{"protect-r", func(m *Memory) { m.Protect(0x1000, 0x100, PermR) },
			nil, Fault{Addr: 0x1008, Width: 8, Access: AccessWrite, Perm: PermR}},
		{"setregions", func(m *Memory) { m.SetRegions(nil) },
			&Fault{Addr: 0x1008, Width: 8, Access: AccessRead}, Fault{Addr: 0x1008, Width: 8, Access: AccessWrite}},
	} {
		m := New()
		m.Map(0x1000, 0x100, PermRW)
		m.Strict = true
		m.Store(0x1008, 8, 42)
		if got := m.Load(0x1008, 8); got != 42 {
			t.Fatalf("%s: primed load = %d", tc.name, got)
		}
		tc.change(m)
		f := faultOf(func() { m.Load(0x1008, 8) })
		if !sameFault(f, tc.load) {
			t.Errorf("%s: load fault = %+v, want %+v", tc.name, f, tc.load)
		}
		if f := faultOf(func() { m.Store(0x1008, 8, 7) }); f == nil || *f != tc.store {
			t.Errorf("%s: store fault = %+v, want %+v", tc.name, f, tc.store)
		}
		if got := m.ReadBytes(0x1008, 1)[0]; got != 42 {
			t.Errorf("%s: faulting store wrote %d", tc.name, got)
		}
	}

	// A faulting Store allocates nothing, on a page already in the TLB or
	// on an unmapped page sharing its slot.
	m = New()
	m.Map(0x1000, 0x100, PermRW)
	m.Strict = true
	m.Store(0x1000, 8, 1)
	mate := slotMate(0x1000)
	for _, addr := range []uint64{0x1200, mate} {
		if f := faultOf(func() { m.Store(addr, 8, 1) }); f == nil || f.Addr != addr {
			t.Fatalf("store at %#x: fault = %+v", addr, f)
		}
		if n := m.ResidentPages(); n != 1 {
			t.Fatalf("store at %#x: %d resident pages, want 1", addr, n)
		}
	}
}
