package gmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The strict-mode model: random interleavings of region changes, host
// writes, Strict toggles and guest loads and stores, replayed against a
// byte map plus a region list. Every access is compared on its value, on
// fault vs no fault (all *Fault fields) and on ResidentPages.

// modelOp is one step. Kind picks the operation, Sel and Off the address,
// Len the width or length, Perm the permission, Arg the value or variant.
type modelOp struct {
	Kind uint8
	Sel  uint8
	Off  uint16
	Len  uint16
	Perm uint8
	Arg  uint64
}

// randomModelOps draws 50-250 ops over three bases, so accesses meet recent
// mappings and, some of the time, the page sharing their TLB slot.
func randomModelOps(r *rand.Rand) []modelOp {
	sels := []uint8{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))}
	ops := make([]modelOp, 50+r.Intn(200))
	for i := range ops {
		ops[i] = modelOp{
			Kind: uint8(r.Intn(256)),
			Sel:  sels[r.Intn(len(sels))],
			Off:  uint16(r.Intn(1 << 16)),
			Len:  uint16(r.Intn(1 << 16)),
			Perm: uint8(r.Intn(256)),
			Arg:  r.Uint64(),
		}
	}
	return ops
}

// modelBases are the windows ops address: the guest layout's text, data,
// heap, pool, TLS and stack pages, pages sharing a TLB slot with the data
// and heap pages, and the top of the address space.
var modelBases = func() []uint64 {
	bases := []uint64{0x1000, 0x0100_0000, 0x0800_0000, 0x5000_0000, 0x6000_0000, 0x7ffe_0000}
	for _, b := range bases[1:3] {
		bases = append(bases, slotMate(b))
	}
	return append(bases, ^uint64(2*PageSize-1))
}()

// slotMate returns the nearest page above base whose TLB slot is base's.
func slotMate(base uint64) uint64 {
	for a := base + 3*PageSize; ; a += PageSize {
		if tlbSlot(a>>pageShift) == tlbSlot(base>>pageShift) {
			return a
		}
	}
}

// modelLens are Map/Unmap/Protect lengths: regions ending mid-page (the
// 0x140-byte data section) as well as whole and multiple pages.
var modelLens = []uint64{1, 8, 0x140, PageSize - 0x140, PageSize, PageSize + 0x140, 2*PageSize + 24}

var modelPerms = []Perm{PermNone, PermR, PermW, PermRW}

// addr maps an op to an address in [base, base+3*PageSize). Three quarters
// of them cluster where regions start, where a 0x140-byte region ends and
// where pages meet, so accesses hit and straddle recent mappings.
func (o modelOp) addr() uint64 {
	base := modelBases[int(o.Sel)%len(modelBases)]
	page, near := uint64(o.Off>>2)%3*PageSize, uint64(o.Off>>4)%16
	switch o.Off & 3 {
	case 0:
		return base + page + near
	case 1:
		return base + page + 0x140 - 8 + near
	case 2:
		return base + page + PageSize - 8 + near
	}
	return base + uint64(o.Off>>2)%(3*PageSize)
}

func (o modelOp) width() uint8 { return []uint8{1, 2, 4, 8}[o.Len%4] }

// span returns a Map/Unmap/Protect range that never wraps past the top of
// the address space (Map does not support regions ending there).
func (o modelOp) span() (uint64, uint64) {
	a, n := o.addr(), modelLens[int(o.Len)%len(modelLens)]
	if a+n < a || a+n == 0 {
		n = ^a
	}
	return a, n
}

type modelRegion struct {
	lo, hi uint64
	perm   Perm
}

// memModel is the reference: bytes absent from mem are zero; the newest
// entry of regions covering a byte gives its permission.
type memModel struct {
	mem     map[uint64]byte
	pages   map[uint64]bool
	regions []modelRegion
	strict  bool
}

func (md *memModel) permAt(b uint64) Perm {
	for i := len(md.regions) - 1; i >= 0; i-- {
		if r := md.regions[i]; r.lo <= b && b < r.hi {
			return r.perm
		}
	}
	return PermNone
}

// fault is the *Fault the model expects for an access, or nil.
func (md *memModel) fault(addr uint64, width uint8, acc Access) *Fault {
	if !md.strict || width == 0 {
		return nil
	}
	if addr+uint64(width) <= addr {
		return &Fault{Addr: addr, Width: width, Access: acc}
	}
	for i := uint64(0); i < uint64(width); i++ {
		if p := md.permAt(addr + i); p&acc.need() == 0 {
			return &Fault{Addr: addr + i, Width: width, Access: acc, Perm: p}
		}
	}
	return nil
}

func (md *memModel) touch(addr uint64, width uint8) {
	for i := uint64(0); i < uint64(width); i++ {
		md.pages[(addr+i)>>pageShift] = true
	}
}

// faultOf runs f and returns the *Fault it panicked with, or nil.
func faultOf(f func()) (flt *Fault) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if flt, ok = r.(*Fault); !ok {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

func sameFault(got, want *Fault) bool {
	if got == nil || want == nil {
		return got == want
	}
	return *got == *want
}

// runModel replays ops against a fresh Memory (strict, nothing mapped) and
// the model, returning the first divergence.
func runModel(ops []modelOp) error {
	m := New()
	m.Strict = true
	md := &memModel{mem: map[uint64]byte{}, pages: map[uint64]bool{}, strict: true}
	for step, o := range ops {
		a, w := o.addr(), o.width()
		switch k := o.Kind % 16; {
		case k < 5 || k == 15 && o.Arg%4 != 0:
			var got uint64
			f := faultOf(func() { got = m.Load(a, w) })
			want := md.fault(a, w, AccessRead)
			if !sameFault(f, want) {
				return fmt.Errorf("step %d: Load(%#x, %d) fault %+v, model %+v", step, a, w, f, want)
			}
			if f != nil {
				break
			}
			md.touch(a, w)
			var v uint64
			for i := uint64(0); i < uint64(w); i++ {
				v |= uint64(md.mem[a+i]) << (8 * i)
			}
			if got != v {
				return fmt.Errorf("step %d: Load(%#x, %d) = %#x, model %#x", step, a, w, got, v)
			}
		case k < 10:
			f := faultOf(func() { m.Store(a, w, o.Arg) })
			want := md.fault(a, w, AccessWrite)
			if !sameFault(f, want) {
				return fmt.Errorf("step %d: Store(%#x, %d) fault %+v, model %+v", step, a, w, f, want)
			}
			if f != nil {
				break
			}
			md.touch(a, w)
			for i := uint64(0); i < uint64(w); i++ {
				md.mem[a+i] = byte(o.Arg >> (8 * i))
			}
		case k == 10 || k == 12:
			lo, n := o.span()
			p := modelPerms[o.Perm%4]
			if k == 10 {
				m.Map(lo, n, p)
			} else {
				m.Protect(lo, n, p)
			}
			md.regions = append(md.regions, modelRegion{lo, lo + n, p})
		case k == 11:
			lo, n := o.span()
			m.Unmap(lo, n)
			md.regions = append(md.regions, modelRegion{lo, lo + n, PermNone})
		case k == 13 || k == 14:
			// The host-privileged writers: never fault, allocate on touch.
			lo, n := o.span()
			b := make([]byte, n)
			if k == 13 {
				for i := range b {
					b[i] = byte(o.Arg >> (8 * (i % 8)))
				}
				m.WriteBytes(lo, b)
			} else {
				m.Zero(lo, n)
			}
			for i, v := range b {
				md.mem[lo+uint64(i)] = v
				md.pages[(lo+uint64(i))>>pageShift] = true
			}
		default:
			m.Strict = !m.Strict
			md.strict = m.Strict
		}
		if got, want := m.ResidentPages(), len(md.pages); got != want {
			return fmt.Errorf("step %d (kind %d): %d resident pages, model %d", step, o.Kind%16, got, want)
		}
	}
	return nil
}

// modelOpBytes is the size of one encoded modelOp.
const modelOpBytes = 15

// decodeModelOps reads modelOpBytes-byte ops from fuzz input.
func decodeModelOps(data []byte) []modelOp {
	var ops []modelOp
	for ; len(data) >= modelOpBytes; data = data[modelOpBytes:] {
		ops = append(ops, modelOp{
			Kind: data[0],
			Sel:  data[1],
			Off:  binary.LittleEndian.Uint16(data[2:]),
			Len:  binary.LittleEndian.Uint16(data[4:]),
			Perm: data[6],
			Arg:  binary.LittleEndian.Uint64(data[7:]),
		})
	}
	return ops
}

func encodeModelOps(ops []modelOp) []byte {
	var out []byte
	for _, o := range ops {
		b := make([]byte, modelOpBytes)
		b[0], b[1] = o.Kind, o.Sel
		binary.LittleEndian.PutUint16(b[2:], o.Off)
		binary.LittleEndian.PutUint16(b[4:], o.Len)
		b[6] = o.Perm
		binary.LittleEndian.PutUint64(b[7:], o.Arg)
		out = append(out, b...)
	}
	return out
}

// modelSeed maps the data section's 0x140 bytes, stores at and past its end,
// reads back, write-protects it and stores again.
var modelSeed = []modelOp{
	{Kind: 10, Sel: 1, Off: 3, Len: 2, Perm: 3},
	{Kind: 5, Sel: 1, Off: 0x138<<2 | 3, Len: 3, Arg: 0x1122334455667788},
	{Kind: 5, Sel: 1, Off: 0x13c<<2 | 3, Len: 3, Arg: 1},
	{Kind: 0, Sel: 1, Off: 0x138<<2 | 3, Len: 3},
	{Kind: 12, Sel: 1, Off: 3, Len: 2, Perm: 1},
	{Kind: 5, Sel: 1, Off: 0x10<<2 | 3, Len: 3, Arg: 2},
	{Kind: 0, Sel: 1, Off: 0x10<<2 | 3, Len: 3},
}

func TestStrictMemoryVsModel(t *testing.T) {
	if err := runModel(modelSeed); err != nil {
		t.Fatalf("seed ops: %v", err)
	}
	for seed := int64(1); seed <= 200; seed++ {
		if err := runModel(randomModelOps(rand.New(rand.NewSource(seed)))); err != nil {
			t.Fatalf("rand seed %d: %v", seed, err)
		}
	}
}

func FuzzMemoryModel(f *testing.F) {
	f.Add(encodeModelOps(modelSeed))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runModel(decodeModelOps(data)); err != nil {
			t.Fatal(err)
		}
	})
}
