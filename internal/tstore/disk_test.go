package tstore

// Tests for the cross-process locked append-only protocol: corrupt-frame
// skipping, merge-through-the-shared-file, torn-tail recovery at every
// write boundary, bounded eviction with compaction, and the storage fault
// matrix (every injected kind degrades to cold, never crashes, never
// serves a wrong unit).

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// writeRawFile builds a store file by hand: header plus the given frame
// payloads (each framed with a correct CRC, whatever the payload).
func writeRawFile(t *testing.T, dir string, key Key, payloads [][]byte) string {
	t.Helper()
	e := &enc{buf: append([]byte{}, fileMagic...)}
	e.str(key.String())
	for _, p := range payloads {
		e.u64(uint64(len(p)))
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(p))
		e.buf = append(e.buf, crc[:]...)
		e.buf = append(e.buf, p...)
	}
	path := fileName(dir, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, e.buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func encodedUnit(t *testing.T, addr uint64) []byte {
	t.Helper()
	var e enc
	encodeUnit(&e, sampleUnit(t, addr))
	return e.buf
}

// TestCorruptFrameSkipped: a frame whose CRC passes but whose payload does
// not decode is counted and skipped — the frames after it still load. This
// is the satellite fix: the old loader discarded the rest of the tier.
func TestCorruptFrameSkipped(t *testing.T) {
	dir := t.TempDir()
	writeRawFile(t, dir, testKey(), [][]byte{
		encodedUnit(t, 0x1000),
		[]byte("not a unit at all"), // framed correctly, undecodable
		encodedUnit(t, 0x2000),
		encodedUnit(t, 0x3000),
	})
	st := NewCache(dir).Open(testKey())
	if got := st.Len(); got != 3 {
		t.Fatalf("loaded %d units, want 3 (corrupt frame must not end the scan)", got)
	}
	if got := st.Stats().CorruptFrames; got != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", got)
	}
	for _, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		if st.Get(addr) == nil {
			t.Fatalf("unit %#x lost behind the corrupt frame", addr)
		}
	}
}

// TestCrossProcessAppend: two caches on one directory interleave appends;
// each save preserves the other's frames (scan-merge before append), so a
// fresh cache sees the union.
func TestCrossProcessAppend(t *testing.T) {
	dir := t.TempDir()
	a := NewCache(dir)
	sa := a.Open(testKey())
	for i := uint64(0); i < 4; i++ {
		sa.Put(sampleUnit(t, 0x1000+i*64))
	}
	if err := a.Save(); err != nil {
		t.Fatal(err)
	}

	// B starts after A's save: warm from A's frames, translates one more.
	b := NewCache(dir)
	sb := b.Open(testKey())
	if sb.Len() != 4 {
		t.Fatalf("B warm-started with %d units, want 4", sb.Len())
	}
	sb.Put(sampleUnit(t, 0x5000))
	if err := b.Save(); err != nil {
		t.Fatal(err)
	}

	// A translates another unit and saves: it must append its own frame
	// without clobbering B's, and merge B's unit while under the lock.
	sa.Put(sampleUnit(t, 0x6000))
	if err := a.Save(); err != nil {
		t.Fatal(err)
	}
	if sa.Get(0x5000) == nil {
		t.Fatal("A's save did not merge B's frame")
	}
	if got := sa.Stats().Merged; got == 0 {
		t.Fatal("Merged counter not bumped by save-time scan")
	}

	fresh := NewCache(dir).Open(testKey())
	if got := fresh.Len(); got != 6 {
		t.Fatalf("union has %d units, want 6", got)
	}
}

// TestOnMissMerge: frames another process appends mid-run reach this one
// through the on-miss re-scan — the warm-seeds-cold path.
func TestOnMissMerge(t *testing.T) {
	dir := t.TempDir()
	a := NewCache(dir)
	sa := a.Open(testKey()) // opens before any file exists

	b := NewCache(dir)
	sb := b.Open(testKey())
	sb.Put(sampleUnit(t, 0x4000))
	if err := b.Save(); err != nil {
		t.Fatal(err)
	}

	// A's first miss re-scans (tick 0), sees the file grew, merges.
	if u := sa.Get(0x4000); u == nil {
		t.Fatal("on-miss merge did not adopt the other process's unit")
	}
	if got := sa.Stats().Merged; got != 1 {
		t.Fatalf("Merged = %d, want 1", got)
	}
	if got := sa.Stats().Hits; got != 1 {
		t.Fatalf("post-merge lookup was not a hit: hits=%d", got)
	}
}

// TestKillMidAppendEveryBoundary: truncating the file at EVERY byte offset
// (a kill -9 at any point of an append) leaves a file that loads without
// panic, recovers exactly the complete frames, and is fully repaired by
// the next writer (torn tail truncated under the lock, new frame appended).
func TestKillMidAppendEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	st := c.Open(testKey())
	for i := uint64(0); i < 4; i++ {
		st.Put(sampleUnit(t, 0x1000+i*64))
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	path := fileName(dir, testKey())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, for the exact-recovery assertion.
	d := &dec{buf: data, off: len(fileMagic)}
	d.str()
	headerEnd := d.off
	var bounds []int
	for d.off < len(d.buf) {
		if _, ok := readFrame(d); !ok {
			t.Fatal("test file has a bad frame")
		}
		bounds = append(bounds, d.off)
	}
	complete := func(n int) int {
		k := 0
		for _, b := range bounds {
			if b <= n {
				k++
			}
		}
		return k
	}
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := NewCache(dir).Open(testKey())
		want := 0
		if cut >= headerEnd {
			want = complete(cut)
		}
		if got := st.Len(); got != want {
			t.Fatalf("cut at %d/%d: loaded %d units, want %d", cut, len(data), got, want)
		}
	}
	// Survivor repair: leave a torn tail, have a new writer append.
	if err := os.WriteFile(path, data[:bounds[1]+5], 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(dir)
	s2 := c2.Open(testKey())
	if s2.Len() != 2 {
		t.Fatalf("torn file warm-started %d units, want 2", s2.Len())
	}
	s2.Put(sampleUnit(t, 0x9000))
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}
	s3 := NewCache(dir).Open(testKey())
	if s3.Len() != 3 {
		t.Fatalf("repaired file has %d units, want 3 (2 survivors + 1 new)", s3.Len())
	}
	if s3.Get(0x9000) == nil {
		t.Fatal("appended unit missing after repair")
	}
}

// TestConcurrentReadersAndWriters: caches in multiple goroutines hammer one
// directory with puts, saves and opens (flock conflicts are real even
// in-process: each open file description contends). Run under -race by
// make check. No assertion beyond "no panic, no corruption": every reader
// must see only decodable unions of what writers published.
func TestConcurrentReadersAndWriters(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewCache(dir)
			st := c.Open(testKey())
			for i := uint64(0); i < 6; i++ {
				st.Put(sampleUnit(t, 0x1000+(uint64(w)*6+i)*64))
				if err := c.Save(); err != nil {
					t.Errorf("writer %d save: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				st := NewCache(dir).Open(testKey())
				for _, u := range st.snapshot() {
					if u.Code == nil {
						t.Error("reader observed a unit without code")
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := NewCache(dir).Open(testKey()).Len(); got != 24 {
		t.Fatalf("final union has %d units, want 24", got)
	}
}

// TestEvictionUnitCap: the clock keeps the cache under MaxUnits, and the
// compaction that follows keeps the FILE under it too.
func TestEvictionUnitCap(t *testing.T) {
	dir := t.TempDir()
	c := NewCacheOpts(Options{Dir: dir, MaxUnits: 10})
	st := c.Open(testKey())
	for i := uint64(0); i < 30; i++ {
		st.Put(sampleUnit(t, 0x1000+i*64))
		if got := c.totalUnits.Load(); got > 10 {
			t.Fatalf("after put %d: %d units cached, cap 10", i, got)
		}
	}
	if got := st.Stats().Evictions; got == 0 {
		t.Fatal("no evictions under a 10-unit cap with 30 puts")
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	// The compacted file must not resurrect evicted units.
	fresh := NewCacheOpts(Options{Dir: dir}) // no cap: loads whatever is there
	if got := fresh.Open(testKey()).Len(); got > 10 {
		t.Fatalf("compacted file holds %d units, cap was 10", got)
	}
}

// TestEvictionByteCap: same, against MaxBytes, and Stats reports bytes.
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
	c := NewCacheOpts(Options{MaxUnits: 8})
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

// storageCase describes one injected storage fault kind's expectations.
type storageCase struct {
	kind    faultinject.Kind
	spec    string
	wantIO  bool // Stats().IOFaults must rise
	wantLck bool // Stats().LockWaits must rise
}

// TestStorageFaultsDegrade: every injected storage fault kind, firing on
// EVERY opportunity, leaves the store functional (cold at worst), bumps
// its counter, and never panics or serves a corrupted unit.
func TestStorageFaultsDegrade(t *testing.T) {
	cases := []storageCase{
		{kind: faultinject.StoreReadErr, spec: "tsread", wantIO: true},
		{kind: faultinject.StoreWriteErr, spec: "tswrite", wantIO: true},
		{kind: faultinject.StoreNoSpace, spec: "tsnospc", wantIO: true},
		{kind: faultinject.StoreShortWrite, spec: "tsshort", wantIO: true},
		{kind: faultinject.StoreBitFlip, spec: "tsflip"},
		{kind: faultinject.StoreLockTimeout, spec: "tslock", wantLck: true},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			dir := t.TempDir()
			// Seed the directory with a clean file first.
			clean := NewCache(dir)
			cs := clean.Open(testKey())
			for i := uint64(0); i < 4; i++ {
				cs.Put(sampleUnit(t, 0x1000+i*64))
			}
			if err := clean.Save(); err != nil {
				t.Fatal(err)
			}

			in := faultinject.New(7)
			in.Enable(tc.kind, 1)
			c := NewCacheOpts(Options{Dir: dir, FS: &FaultFS{In: in}, LockTimeout: 20 * time.Millisecond})
			st := c.Open(testKey()) // may come up cold: that IS the degradation
			for i := uint64(0); i < 4; i++ {
				addr := 0x1000 + i*64
				if u := st.Get(addr); u != nil {
					// Whatever survived the fault must be the right unit.
					if u.Code.GuestAddr != addr {
						t.Fatalf("wrong-universe unit served under %s", tc.spec)
					}
				} else {
					st.Put(sampleUnit(t, addr)) // cold path: retranslate
				}
			}
			if st.Get(0x1000) == nil {
				t.Fatal("store unusable after degradation")
			}
			st.Put(sampleUnit(t, 0xA000)) // force the save's append path
			_ = c.Save()                  // error is diagnostic; must not panic
			s := st.Stats()
			if tc.wantIO && s.IOFaults == 0 {
				t.Fatalf("%s: IOFaults not counted (stats %+v)", tc.spec, s)
			}
			if tc.wantLck && s.LockWaits == 0 {
				t.Fatalf("%s: LockWaits not counted (stats %+v)", tc.spec, s)
			}
			if in.Fired(tc.kind) == 0 {
				t.Fatalf("%s: injector never fired", tc.spec)
			}

			// The file (whatever state the faults left it in) must load
			// cleanly with a healthy FS: CRC + header checks are the last
			// line, and they never let damage escalate past "fewer units".
			recov := NewCache(dir).Open(testKey())
			for _, u := range recov.snapshot() {
				if u.Code == nil {
					t.Error("recovered unit without code")
				}
			}
		})
	}
}

// TestShortWriteTornTailRepair: an injected short write mid-save leaves at
// most one torn tail, which the next clean writer truncates and repairs.
func TestShortWriteTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	in := faultinject.New(3)
	in.Enable(faultinject.StoreShortWrite, 3) // tear some, land some
	c := NewCacheOpts(Options{Dir: dir, FS: &FaultFS{In: in}})
	st := c.Open(testKey())
	for i := uint64(0); i < 6; i++ {
		st.Put(sampleUnit(t, 0x1000+i*64))
	}
	_ = c.Save() // some frames land, one tears

	// A clean successor loads the prefix, then repairs on its save.
	c2 := NewCache(dir)
	s2 := c2.Open(testKey())
	before := s2.Len()
	s2.Put(sampleUnit(t, 0x9000))
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}
	s3 := NewCache(dir).Open(testKey())
	if got := s3.Len(); got != before+1 {
		t.Fatalf("after repair: %d units, want %d", got, before+1)
	}
}

// TestFireStorageDeterministic: the storage streams are a pure function of
// (seed, kind, N) like every other injected kind, and concurrent draws are
// safe (exercised under -race).
func TestFireStorageDeterministic(t *testing.T) {
	draw := func(seed uint64) []bool {
		in := faultinject.New(seed)
		in.Enable(faultinject.StoreReadErr, 3)
		out := make([]bool, 12)
		for i := range out {
			out[i] = in.FireStorage(faultinject.StoreReadErr)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("storage stream not deterministic at draw %d", i)
		}
	}
	// Concurrent draws: total fired must equal the sequential count.
	in := faultinject.New(42)
	in.Enable(faultinject.StoreWriteErr, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.FireStorage(faultinject.StoreWriteErr)
			}
		}()
	}
	wg.Wait()
	if seen, fired := in.Seen(faultinject.StoreWriteErr), in.Fired(faultinject.StoreWriteErr); seen != 800 || fired != 400 {
		t.Fatalf("concurrent draws lost decisions: seen=%d fired=%d, want 800/400", seen, fired)
	}
}
