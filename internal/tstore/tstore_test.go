package tstore

import (
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
	sb.AppendCall(vex.NoTemp, vex.DirtyCall{Name: "flush_accesses",
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
	return Key{Image: "abc123", Tool: "taskgrind"}
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

// TestInvalidation: stores under keys that differ in image or in tool
// share nothing. This is the stale-translation safety property.
func TestInvalidation(t *testing.T) {
	c := NewCache("")
	c.Open(testKey()).Put(sampleUnit(t, 0x1000))
	img := testKey()
	img.Image = "abc124" // one bit of image content changed its hash
	tool := testKey()
	tool.Tool = "memcheck"
	for _, k := range []Key{img, tool} {
		if st := c.Open(k); st.Len() != 0 || st.Get(0x1000) != nil {
			t.Fatalf("key %s served another key's unit", k)
		}
	}
	if c.Open(testKey()).Get(0x1000) == nil {
		t.Fatal("original key lost its unit")
	}
}

// TestEvictionByteCap: the clock keeps the cache under MaxBytes, and
// Stats reports bytes.
func TestEvictionByteCap(t *testing.T) {
	unitSize := sizeOf(sampleUnit(t, 0x1000))
	cap := unitSize * 8
	c := NewCacheOpts(Options{MaxBytes: cap})
	st := c.Open(testKey())
	for i := uint64(0); i < 40; i++ {
		st.Put(sampleUnit(t, 0x1000+i*64))
		if got := c.bytes.Load(); got > cap {
			t.Fatalf("after put %d: %d bytes cached, cap %d", i, got, cap)
		}
	}
	cs := c.Stats()
	if cs.Evictions == 0 || cs.Bytes == 0 {
		t.Fatalf("byte-capped cache stats: %+v", cs)
	}
}

// TestEvictionSparesAdopted: the second-chance bit — units adopted since
// the hand's last visit survive a sweep that claims cold ones.
func TestEvictionSparesAdopted(t *testing.T) {
	c := NewCacheOpts(Options{MaxBytes: 8 * sizeOf(sampleUnit(t, 0x1000))})
	st := c.Open(testKey())
	hot := uint64(0x1000)
	for i := uint64(0); i < 20; i++ {
		st.Put(sampleUnit(t, 0x1000+i*64))
		st.Get(hot) // keep the first unit continuously adopted
	}
	if st.Get(hot) == nil {
		t.Fatal("continuously adopted unit was evicted")
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
