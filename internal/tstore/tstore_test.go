package tstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/vex"
)

// sampleSB builds a representative superblock: temps, marks, loads, stores,
// binops, unops, a conditional exit and a dirty call with Meta.
func sampleSB(addr uint64) *vex.SuperBlock {
	sb := &vex.SuperBlock{GuestAddr: addr, NextJK: vex.JKCall, Aux: -3,
		Next: vex.ConstE(addr + 64)}
	t0 := sb.NewTemp()
	t1 := sb.NewTemp()
	t2 := sb.NewTemp()
	sb.Append(vex.Stmt{Kind: vex.SIMark, Addr: addr, Len: 4})
	sb.Append(vex.Stmt{Kind: vex.SWrTmpLoad, Tmp: t0, Wd: 8, E1: vex.ConstE(0x5000)})
	sb.Append(vex.Stmt{Kind: vex.SWrTmpBinop, Tmp: t1, Op: vex.OpAdd,
		E1: vex.TmpE(t0), E2: vex.ConstE(7)})
	sb.Append(vex.Stmt{Kind: vex.SWrTmpUnop, Tmp: t2, Op: vex.OpNot, E1: vex.TmpE(t1)})
	sb.Append(vex.Stmt{Kind: vex.SDirty, Tmp: vex.NoTemp, Name: "flush_accesses",
		Fn:   func(any, []uint64) uint64 { return 0 },
		Args: []vex.Expr{vex.TmpE(t0)}, Meta: []uint64{addr, 8}})
	sb.Append(vex.Stmt{Kind: vex.SStore, Wd: 4, E1: vex.RegE(3), E2: vex.TmpE(t2)})
	sb.Append(vex.Stmt{Kind: vex.SExit, Target: addr + 32, JK: vex.JKBoring,
		E1: vex.TmpE(t1)})
	sb.Append(vex.Stmt{Kind: vex.SPutReg, Reg: 5, E1: vex.TmpE(t2)})
	return sb
}

func sampleUnit(t *testing.T, addr uint64) *Unit {
	t.Helper()
	sb := sampleSB(addr)
	code, err := vex.Compile(sb)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return &Unit{Addr: addr, Code: code}
}

func testKey() Key {
	return Key{Image: "abc123", Tool: "taskgrind", Version: FormatVersion}
}

// TestUnitRoundtrip: encode/decode preserves the compiled form, and
// re-encoding the decoded unit is byte-identical (the property the
// content-addressed store rests on).
func TestUnitRoundtrip(t *testing.T) {
	u := sampleUnit(t, 0x1000)
	var e enc
	encodeUnit(&e, u)
	got, err := decodeUnit(&dec{buf: e.buf})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Addr != u.Addr {
		t.Fatalf("header mismatch: %+v vs %+v", got, u)
	}
	if got.Code == nil || len(got.Code.Ops) != len(u.Code.Ops) || got.Code.NInstrs != u.Code.NInstrs ||
		got.Code.NStmts != len(sampleSB(u.Addr).Stmts) || len(got.Code.PCs) != len(u.Code.PCs) {
		t.Fatalf("compiled form mismatch")
	}
	// The decoder must rebind op-table functions from the Op tag.
	for i, op := range got.Code.Ops {
		o := u.Code.Ops[i]
		if op.Code != o.Code || op.Op != o.Op {
			t.Fatalf("uop %d mismatch: %+v vs %+v", i, op, o)
		}
		if (o.Fn != nil) != (op.Fn != nil) || (o.Fn1 != nil) != (op.Fn1 != nil) {
			t.Fatalf("uop %d fn rebinding lost: %+v", i, op)
		}
	}
	var e2 enc
	encodeUnit(&e2, got)
	if !bytes.Equal(e.buf, e2.buf) {
		t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(e.buf), len(e2.buf))
	}
}

// TestDecodeRejectsCorruption: every single-byte corruption either decodes
// to the same bytes or fails — never a silently different unit that
// re-encodes differently. (CRC catches corruption first in the file tier;
// this guards the decoder itself against shape confusion.)
func TestDecodeRejectsTruncation(t *testing.T) {
	u := sampleUnit(t, 0x1000)
	var e enc
	encodeUnit(&e, u)
	for cut := 0; cut < len(e.buf); cut += 7 {
		if _, err := decodeUnit(&dec{buf: e.buf[:cut]}); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(e.buf))
		}
	}
	// Trailing garbage is an error too.
	if _, err := decodeUnit(&dec{buf: append(append([]byte{}, e.buf...), 0)}); err == nil {
		t.Fatalf("trailing byte accepted")
	}
}

// TestStoreMerge: a unit without code is never published, and the first
// writer wins on duplicate Puts.
func TestStoreMerge(t *testing.T) {
	st := NewStore(testKey())
	u := sampleUnit(t, 0x2000)
	st.Put(&Unit{Addr: u.Addr})
	if got := st.Get(u.Addr); got != nil {
		t.Fatalf("unit without code published: %+v", got)
	}
	st.Put(u)
	// A racing duplicate Put must not replace the published unit.
	st.Put(sampleUnit(t, u.Addr))
	if got := st.Get(u.Addr); got != u {
		t.Fatalf("duplicate Put replaced the unit: %+v", got)
	}
	s := st.Stats()
	if s.Units != 1 || s.Puts != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestDiskRoundtrip: save, reopen, and get the same units back.
func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	st := c.Open(testKey())
	for i := uint64(0); i < 8; i++ {
		u := sampleUnit(t, 0x1000+i*64)
		st.Put(u)
	}
	if err := c.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	st2 := NewCache(dir).Open(testKey())
	if st2.Len() != 8 {
		t.Fatalf("reloaded %d units, want 8", st2.Len())
	}
	u := st2.Get(0x1000)
	if u == nil || u.Code == nil {
		t.Fatalf("reloaded unit mismatch: %+v", u)
	}
	// Dirty helpers must come back unbound (the adopting core rebinds).
	for _, op := range u.Code.Ops {
		if op.Dirty != nil && op.Dirty.Fn != nil {
			t.Fatalf("persisted dirty fn survived the disk")
		}
	}
}

// TestInvalidation: a tier saved under one key is never served for another
// — a modified image, a different tool, a bumped format version. This is
// the stale-translation safety property.
func TestInvalidation(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	st := c.Open(testKey())
	st.Put(sampleUnit(t, 0x1000))
	if err := c.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	cases := []Key{}
	k := testKey()
	k.Image = "abc124" // one bit of image content changed its hash
	cases = append(cases, k)
	k = testKey()
	k.Tool = "memcheck"
	cases = append(cases, k)
	k = testKey()
	k.Version = FormatVersion + 1
	cases = append(cases, k)
	for _, k := range cases {
		if got := NewCache(dir).Open(k).Len(); got != 0 {
			t.Fatalf("key %s served %d stale units", k.String(), got)
		}
	}
	// And the original key still loads.
	if got := NewCache(dir).Open(testKey()).Len(); got != 1 {
		t.Fatalf("original key lost its tier: %d units", got)
	}

	// A version-1 tier (key carried extend=, units a seam count, a
	// pretranslated flag and the IR), even when found under the current
	// key's file name, is a structural miss: the store starts cold, counts
	// no corrupt frames, and the next save replaces the file with a
	// current tier.
	v1dir := t.TempDir()
	u := sampleUnit(t, 0x1000)
	e := &enc{buf: append([]byte{}, fileMagic...)}
	e.str("v1/img=abc123/tool=taskgrind/engine=compiled/extend=0/delivery=batched")
	var ue enc
	ue.u64(u.Addr)
	ue.u64(0) // seams
	ue.u64(2) // flags: compiled form present
	encCompiled(&ue, u.Code)
	e.u64(uint64(len(ue.buf)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(ue.buf))
	e.buf = append(append(e.buf, crc[:]...), ue.buf...)
	if err := os.WriteFile(fileName(v1dir, testKey()), e.buf, 0o600); err != nil {
		t.Fatal(err)
	}
	c1 := NewCache(v1dir)
	st1 := c1.Open(testKey())
	if s := st1.Stats(); s.Units != 0 || s.CorruptFrames != 0 || s.IOFaults != 0 {
		t.Fatalf("v1 tier not a clean miss: %+v", s)
	}
	st1.Put(sampleUnit(t, 0x2000))
	if err := c1.Save(); err != nil {
		t.Fatalf("save over v1 tier: %v", err)
	}
	if got := NewCache(v1dir).Open(testKey()).Len(); got != 1 {
		t.Fatalf("v1 tier not replaced: %d units", got)
	}
}

// TestInvalidationRenamedFile: even a file hand-renamed to another key's
// name is rejected by the header check.
func TestInvalidationRenamedFile(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	st := c.Open(testKey())
	st.Put(sampleUnit(t, 0x1000))
	if err := c.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	other := testKey()
	other.Image = "fedcba"
	if err := os.Rename(fileName(dir, testKey()), fileName(dir, other)); err != nil {
		t.Fatal(err)
	}
	if got := NewCache(dir).Open(other).Len(); got != 0 {
		t.Fatalf("renamed tier served %d stale units", got)
	}
}

// TestTornTail: a truncated file (killed writer) warm-starts with the
// intact prefix and drops the torn frame.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	st := c.Open(testKey())
	for i := uint64(0); i < 4; i++ {
		st.Put(sampleUnit(t, 0x1000+i*64))
	}
	if err := c.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	path := fileName(dir, testKey())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o600); err != nil {
		t.Fatal(err)
	}
	got := NewCache(dir).Open(testKey()).Len()
	if got != 3 {
		t.Fatalf("torn tail recovered %d units, want 3", got)
	}
	// Flipping a byte inside a frame drops that frame and the rest.
	mid := len(fileMagic) + 40
	data[mid] ^= 0xff
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if got := NewCache(dir).Open(testKey()).Len(); got >= 4 {
		t.Fatalf("corrupt frame not dropped: %d units", got)
	}
}

// TestSaveSkipsUngrown: Save rewrites only stores that grew since the last
// save, so a warm run that translates nothing does not touch the disk.
func TestSaveSkipsUngrown(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	st := c.Open(testKey())
	st.Put(sampleUnit(t, 0x1000))
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	path := fileName(dir, testKey())
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(dir)
	_ = c2.Open(testKey())
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatalf("ungrown store was rewritten")
	}
	// No temp litter either way (the persistent .lock companion is part of
	// the cross-process protocol, not litter).
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != filepath.Base(path) && filepath.Ext(e.Name()) != ".lock" {
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
}

// TestConcurrentStore: many goroutines race Get/Put on one store (run under
// -race by make check).
func TestConcurrentStore(t *testing.T) {
	st := NewStore(testKey())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 200; i++ {
				addr := 0x1000 + (i%50)*64
				if u := st.Get(addr); u != nil && u.Code.GuestAddr != addr {
					t.Errorf("unit addr mismatch")
					return
				}
				if code, err := vex.Compile(sampleSB(addr)); err == nil {
					st.Put(&Unit{Addr: addr, Code: code})
				}
			}
		}()
	}
	wg.Wait()
	if st.Len() != 50 {
		t.Fatalf("store has %d units, want 50", st.Len())
	}
}
