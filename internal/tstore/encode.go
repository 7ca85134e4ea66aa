package tstore

// Unit serialization for the persistent tier, reusing the varint/CRC-framed
// idioms of internal/obs/store: an append-only varint stream per unit,
// wrapped in a length+CRC32 frame so a torn tail is detected and dropped
// instead of poisoning the store.
//
// Function values do not serialize. Pure op-table funcs (UOp.Fn/Fn1) are
// re-bound from the recorded vex.Op on decode; dirty-helper closures are
// left nil and re-bound by the adopting core from (Name, Meta, Args) — a
// decoded unit is inert until a core attaches it.
//
// A unit encodes as its address followed by its compiled code.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vex"
)

// enc is an append-only varint stream.
type enc struct {
	buf []byte
}

func (e *enc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// dec is the matching bounds-checked reader. The first malformed read
// latches err; subsequent reads return zero values.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("tstore: decode: "+format, args...)
	}
}

func (d *dec) u64() uint64 {
	// One-byte fast path: almost every field in a unit (kinds, widths,
	// temps, small lengths) is < 0x80, and the warm-start scan decodes
	// thousands of them per store file.
	if d.err == nil && d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	return d.u64Slow()
}

func (d *dec) u64Slow() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err == nil && d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			// Zig-zag decode of a single byte.
			return int64(b>>1) ^ -int64(b&1)
		}
	}
	return d.i64Slow()
}

func (d *dec) i64Slow() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d overruns buffer at %d", n, d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a collection length and sanity-bounds it against the bytes
// remaining, so corrupt input cannot trigger a huge allocation.
func (d *dec) count() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off)+1 {
		d.fail("count %d implausible at %d", n, d.off)
		return 0
	}
	return int(n)
}

// encodeUnit serializes a unit (without its frame).
func encodeUnit(e *enc, u *Unit) {
	e.u64(u.Addr)
	encCompiled(e, u.Code)
}

// decodeUnit reverses encodeUnit. Dirty helpers come back with nil Fn.
func decodeUnit(d *dec) (*Unit, error) {
	u := &Unit{Addr: d.u64()}
	u.Code = decCompiled(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("tstore: decode: %d trailing bytes in unit frame", len(d.buf)-d.off)
	}
	return u, nil
}

func encCompiled(e *enc, c *vex.Compiled) {
	e.u64(c.GuestAddr)
	e.u64(uint64(c.NFrame))
	e.u64(uint64(c.NInstrs))
	e.u64(c.LastPC)
	e.u64(uint64(c.NextKind))
	e.u64(c.NextImm)
	e.u64(uint64(c.NextIdx))
	e.u64(uint64(c.NextJK))
	e.i64(int64(c.Aux))
	e.i64(int64(c.NextChain))
	e.u64(uint64(c.NChains))
	e.u64(uint64(c.NStmts))
	e.u64(uint64(len(c.Ops)))
	for i := range c.Ops {
		u := &c.Ops[i]
		e.u64(uint64(u.Code))
		e.u64(uint64(u.Wd))
		e.u64(uint64(u.Op))
		e.u64(uint64(u.Dst))
		e.u64(uint64(u.A))
		e.u64(uint64(u.B))
		e.i64(int64(u.ChainIdx))
		e.u64(u.Imm)
		if u.Dirty == nil {
			e.u64(0)
			continue
		}
		e.u64(1)
		dd := u.Dirty
		e.str(dd.Name)
		e.u64(uint64(len(dd.Args)))
		for _, a := range dd.Args {
			e.u64(uint64(a.Kind))
			e.u64(uint64(a.Idx))
			e.u64(a.Imm)
		}
		e.u64(uint64(len(dd.Meta)))
		for _, m := range dd.Meta {
			e.u64(m)
		}
		e.u64(uint64(dd.Tmp))
		if dd.HasTmp {
			e.u64(1)
		} else {
			e.u64(0)
		}
		e.u64(uint64(dd.InstrsBefore))
	}
	// PCs are near-monotone guest addresses: delta-encode them. ICs are
	// small monotone counts.
	prev := uint64(0)
	for _, pc := range c.PCs {
		e.i64(int64(pc) - int64(prev))
		prev = pc
	}
	for _, ic := range c.ICs {
		e.u64(uint64(ic))
	}
}

func decCompiled(d *dec) *vex.Compiled {
	c := &vex.Compiled{GuestAddr: d.u64()}
	c.NFrame = uint32(d.u64())
	c.NInstrs = int(d.u64())
	c.LastPC = d.u64()
	c.NextKind = vex.ExprKind(d.u64())
	c.NextImm = d.u64()
	c.NextIdx = uint32(d.u64())
	c.NextJK = vex.JumpKind(d.u64())
	c.Aux = int32(d.i64())
	c.NextChain = int32(d.i64())
	c.NChains = int(d.u64())
	c.NStmts = int(d.u64())
	n := d.count()
	if d.err != nil {
		return c
	}
	c.Ops = make([]vex.UOp, n)
	for i := 0; i < n && d.err == nil; i++ {
		u := &c.Ops[i]
		u.Code = vex.UCode(d.u64())
		u.Wd = uint8(d.u64())
		u.Op = vex.Op(d.u64())
		u.Dst = uint32(d.u64())
		u.A = uint32(d.u64())
		u.B = uint32(d.u64())
		u.ChainIdx = int32(d.i64())
		u.Imm = d.u64()
		if d.u64() != 0 {
			dd := &vex.DirtyOp{Name: d.str()}
			if na := d.count(); na > 0 {
				dd.Args = make([]vex.CArg, na)
				for j := range dd.Args {
					dd.Args[j] = vex.CArg{
						Kind: vex.ExprKind(d.u64()),
						Idx:  uint32(d.u64()),
						Imm:  d.u64(),
					}
				}
			}
			if nm := d.count(); nm > 0 {
				dd.Meta = make([]uint64, nm)
				for j := range dd.Meta {
					dd.Meta[j] = d.u64()
				}
			}
			dd.Tmp = uint32(d.u64())
			dd.HasTmp = d.u64() != 0
			dd.InstrsBefore = uint32(d.u64())
			u.Dirty = dd
		}
		rebindOp(d, u)
	}
	c.PCs = make([]uint64, n)
	prev := uint64(0)
	for i := 0; i < n && d.err == nil; i++ {
		prev = uint64(int64(prev) + d.i64())
		c.PCs[i] = prev
	}
	c.ICs = make([]uint32, n)
	for i := 0; i < n && d.err == nil; i++ {
		c.ICs[i] = uint32(d.u64())
	}
	return c
}

// rebindOp restores the pre-bound op-table funcs a serialized micro-op
// cannot carry. The vex compiler records the source vex.Op on every
// op-table micro-op precisely so this lookup works.
func rebindOp(d *dec, u *vex.UOp) {
	switch {
	case (u.Code >= vex.UBinTT && u.Code <= vex.UBinRR) ||
		(u.Code >= vex.UPutBinTT && u.Code <= vex.UPutBinRR) ||
		(u.Code >= vex.UExitBinTT && u.Code <= vex.UExitBinRR):
		if u.Fn = vex.BinopFn(u.Op); u.Fn == nil {
			d.fail("micro-op %d carries non-binary op %d", u.Code, u.Op)
		}
	case u.Code == vex.UUnT || u.Code == vex.UUnR ||
		u.Code == vex.UPutUnT || u.Code == vex.UPutUnR:
		if u.Fn1 = vex.UnopFn(u.Op); u.Fn1 == nil {
			d.fail("micro-op %d carries non-unary op %d", u.Code, u.Op)
		}
	}
}
