package store

// Column encoding primitives: unsigned/zigzag varints, length-prefixed
// strings, and the per-run string dictionary. Each column is one contiguous
// varint stream; timestamp-like columns are delta-encoded against the
// previous row (rows are sorted by the delta key before encoding), so
// monotone clocks cost one or two bytes per row.

import (
	"encoding/binary"
	"fmt"
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

// bytesSection appends a length-prefixed blob (a column or a JSON section),
// so readers can skip sections they do not need.
func (e *enc) bytesSection(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
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
		d.err = fmt.Errorf("store: decode: "+format, args...)
	}
}

func (d *dec) u64() uint64 {
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

// bytesSection reads a length-prefixed blob as a sub-decoder.
func (d *dec) bytesSection() *dec {
	n := d.u64()
	if d.err != nil {
		return &dec{err: d.err}
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("section length %d overruns buffer at %d", n, d.off)
		return &dec{err: d.err}
	}
	sub := &dec{buf: d.buf[d.off : d.off+int(n)]}
	d.off += int(n)
	return sub
}

// dict interns strings for one run block. Index 0 is always the empty
// string, so zero-valued columns decode to "".
type dict struct {
	idx  map[string]uint32
	strs []string
}

func newDict() *dict {
	return &dict{idx: map[string]uint32{"": 0}, strs: []string{""}}
}

func (d *dict) id(s string) uint32 {
	if i, ok := d.idx[s]; ok {
		return i
	}
	i := uint32(len(d.strs))
	d.idx[s] = i
	d.strs = append(d.strs, s)
	return i
}

func (d *dict) encode(e *enc) {
	e.u64(uint64(len(d.strs)))
	for _, s := range d.strs {
		e.str(s)
	}
}

func decodeDict(d *dec) []string {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail("dictionary count %d implausible", n)
		return nil
	}
	strs := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		strs = append(strs, d.str())
	}
	return strs
}

// dictStr resolves a dictionary index defensively.
func dictStr(strs []string, i uint64) string {
	if i < uint64(len(strs)) {
		return strs[i]
	}
	return ""
}
