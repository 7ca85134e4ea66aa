package gmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLoadStoreWidths(t *testing.T) {
	m := New()
	m.Store(0x1000, 8, 0x1122334455667788)
	if got := m.Load(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("ld64 = %#x", got)
	}
	if got := m.Load(0x1000, 4); got != 0x55667788 {
		t.Fatalf("ld32 = %#x", got)
	}
	if got := m.Load(0x1004, 4); got != 0x11223344 {
		t.Fatalf("ld32 hi = %#x", got)
	}
	if got := m.Load(0x1000, 2); got != 0x7788 {
		t.Fatalf("ld16 = %#x", got)
	}
	if got := m.Load(0x1000, 1); got != 0x88 {
		t.Fatalf("ld8 = %#x", got)
	}
	m.Store(0x1002, 1, 0xAB)
	if got := m.Load(0x1000, 4); got != 0x55AB7788 {
		t.Fatalf("after byte store = %#x", got)
	}
}

func TestStoreTruncates(t *testing.T) {
	m := New()
	m.Store(0x10, 1, 0x1FF)
	if got := m.Load(0x10, 2); got != 0xFF {
		t.Fatalf("truncated store = %#x", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.Store(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Load(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Fatalf("straddle = %#x", got)
	}
	if m.ResidentPages() != 2 {
		t.Fatalf("pages = %d", m.ResidentPages())
	}
}

func TestZeroValueReads(t *testing.T) {
	m := New()
	if m.Load(0xDEAD0000, 8) != 0 {
		t.Fatal("untouched memory not zero")
	}
}

func TestWriteReadBytes(t *testing.T) {
	m := New()
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 40000) // straddles pages
	m.WriteBytes(uint64(PageSize)-100, data)
	got := m.ReadBytes(uint64(PageSize)-100, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadCString(t *testing.T) {
	m := New()
	m.WriteBytes(0x40, append([]byte("hello"), 0))
	if s := m.ReadCString(0x40); s != "hello" {
		t.Fatalf("cstring = %q", s)
	}
}

func TestZeroAndCopy(t *testing.T) {
	m := New()
	m.WriteBytes(0x100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	m.Zero(0x102, 3)
	want := []byte{1, 2, 0, 0, 0, 6, 7, 8}
	if got := m.ReadBytes(0x100, 8); !bytes.Equal(got, want) {
		t.Fatalf("after zero: %v", got)
	}
	// Overlapping copy forward and backward (memmove semantics).
	m.WriteBytes(0x200, []byte{1, 2, 3, 4, 5})
	m.Copy(0x202, 0x200, 3)
	if got := m.ReadBytes(0x200, 5); !bytes.Equal(got, []byte{1, 2, 1, 2, 3}) {
		t.Fatalf("overlap fwd: %v", got)
	}
	m.WriteBytes(0x300, []byte{1, 2, 3, 4, 5})
	m.Copy(0x300, 0x302, 3)
	if got := m.ReadBytes(0x300, 5); !bytes.Equal(got, []byte{3, 4, 5, 4, 5}) {
		t.Fatalf("overlap back: %v", got)
	}
}

// TestHash: the digest folds content, not write order or allocation.
func TestHash(t *testing.T) {
	a, b := New(), New()
	a.Store(0x1000, 8, 1)
	a.WriteBytes(0x9000, []byte("xyz"))
	b.WriteBytes(0x9000, []byte("xyz"))
	b.Store(0x1000, 8, 1)
	if a.Hash() != b.Hash() {
		t.Fatal("equal contents written in different orders hash differently")
	}
	b.Store(0x9001, 1, 'Y')
	if a.Hash() == b.Hash() {
		t.Fatal("a changed byte left the hash unchanged")
	}
	h := a.Hash()
	a.Zero(0x20000, PageSize)
	if a.ResidentPages() != 3 || a.Hash() != h {
		t.Fatalf("an all-zero resident page changed the hash (%d pages)", a.ResidentPages())
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Fatal("fresh footprint nonzero")
	}
	m.Store(0, 1, 1)
	m.Store(10*PageSize, 1, 1)
	if m.Footprint() != 2*PageSize {
		t.Fatalf("footprint = %d", m.Footprint())
	}
}

// Property: a sequence of stores then a load returns the last store's bytes,
// checked against a simple map model.
func TestQuickMemoryVsModel(t *testing.T) {
	type op struct {
		Addr  uint32
		Width uint8
		Val   uint64
	}
	f := func(ops []op) bool {
		m := New()
		model := map[uint64]byte{}
		for _, o := range ops {
			w := []uint8{1, 2, 4, 8}[o.Width%4]
			addr := uint64(o.Addr)
			m.Store(addr, w, o.Val)
			for i := uint8(0); i < w; i++ {
				model[addr+uint64(i)] = byte(o.Val >> (8 * i))
			}
		}
		for a, b := range model {
			if byte(m.Load(a, 1)) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
