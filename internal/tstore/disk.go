package tstore

// The persistent tier: one file per Key under the cache directory, named by
// a hash of the canonical key string, shared by any number of concurrent
// processes. The full key string is written into the file header and must
// match exactly on load — a file that disagrees (different image content,
// tool, engine or format version) is ignored wholesale, so a stale tier can
// never serve a translation for the wrong universe.
//
// Cross-process protocol. The data file is append-only between
// compactions; mutual exclusion is an advisory flock on a companion
// ".lock" file that is never renamed or removed (locking the data file
// itself would race with compaction's rename: a waiter that finally
// acquired the lock would hold an fd to the orphaned inode and append into
// the void). Writers take the lock exclusive; they re-scan the file,
// merging frames other processes appended (this is how a warm daemon seeds
// a cold one), truncate any torn tail left by a killed writer back to the
// last good frame boundary, then append only the frames this process newly
// translated. Readers take the lock shared and never truncate. Because all
// writes happen under the exclusive lock, a reader at any lock acquisition
// sees only complete frames plus at most one torn tail from a crash —
// kill -9 at any byte boundary costs at most the frames after the tear,
// never the file.
//
// Units are CRC32-framed. A CRC failure ends the scan (torn tail); a frame
// whose CRC passes but whose payload fails to decode is counted as corrupt
// and skipped, and the scan continues — framing intact means the following
// frames are still addressable, so one bad payload must not discard the
// rest of the tier.
//
// Every failure on this path — EIO, ENOSPC, short writes, rename
// failures, starved locks — degrades the run to cold translation with a
// counter bumped. Nothing here ever propagates as a crash, and the CRC +
// key-header checks remain the last line against serving poisoned bytes.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var fileMagic = []byte("TGTC")

// fileName derives the store file name from the key. The hash keeps file
// names short and filesystem-safe; the header check carries the actual
// invalidation guarantee.
func fileName(dir string, key Key) string {
	sum := sha256.Sum256([]byte(key.String()))
	return filepath.Join(dir, hex.EncodeToString(sum[:12])+".tcache")
}

// diskTier is one store's connection to its shared file. Its mutex
// serializes this process's disk operations for the store; cross-process
// exclusion is the flock.
type diskTier struct {
	fs          FS
	path        string
	lockPath    string
	lockTimeout time.Duration
	rescanEvery uint64

	mu sync.Mutex
	// lockf is the long-lived handle to the companion lock file, opened on
	// first acquire and kept for the tier's lifetime: the lock file is
	// never renamed or removed, flock state rides the open file
	// description, and re-opening with O_CREATE per operation is the
	// single most expensive syscall on the warm path. Guarded by mu.
	lockf File
	// onDisk records addresses known present in the file (from the last
	// scan under a lock); save appends only addresses not in it.
	onDisk map[uint64]bool
	// lastScan is the file size at the last scan; a cheap Stat comparison
	// gates on-miss re-scans. -1 forces the next re-scan.
	lastScan int64
	// missTick throttles on-miss re-scans to every rescanEvery-th miss.
	missTick uint64

	// needCompact is set by eviction: the file holds frames for units the
	// cache dropped, so the next save rewrites it whole (temp + rename).
	needCompact atomic.Bool
}

func newDiskTier(c *Cache, key Key) *diskTier {
	path := fileName(c.opts.Dir, key)
	return &diskTier{
		fs:          c.fs,
		path:        path,
		lockPath:    path + ".lock",
		lockTimeout: c.opts.LockTimeout,
		rescanEvery: c.opts.RescanEvery,
		onDisk:      make(map[uint64]bool),
		lastScan:    -1,
	}
}

// acquire takes the advisory lock with the tier's timeout, opening (and
// thereafter reusing) the long-lived lock-file handle. A timed-out or
// injected-timeout acquisition counts as a lock wait and returns nil —
// the caller degrades. Any other failure counts as an I/O fault. Called
// with t.mu held; the caller releases with Unlock, never Close.
func (t *diskTier) acquire(exclusive bool, s *Store) File {
	if t.lockf == nil {
		if err := t.fs.MkdirAll(filepath.Dir(t.lockPath), 0o755); err != nil {
			s.ioFaults.Add(1)
			return nil
		}
		f, err := t.fs.OpenFile(t.lockPath, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			s.ioFaults.Add(1)
			return nil
		}
		t.lockf = f
	}
	deadline := time.Now().Add(t.lockTimeout)
	for {
		err := t.lockf.TryLock(exclusive)
		if err == nil {
			return t.lockf
		}
		if errors.Is(err, ErrLockTimeout) || (errors.Is(err, ErrLocked) && time.Now().After(deadline)) {
			s.lockWaits.Add(1)
			return nil
		}
		if !errors.Is(err, ErrLocked) {
			s.ioFaults.Add(1)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// scan walks the file image, verifying the header and framing. When merge
// is set, every decodable unit is offered to the store (evicted addresses
// excluded there). Returns the byte offset of the last good frame boundary
// (everything past it is a torn tail), the address set found, whether the
// header matched this store's key, and whether any merge landed.
func (t *diskTier) scan(data []byte, s *Store, merge bool) (validEnd int, addrs map[uint64]bool, headerOK, gained bool) {
	addrs = make(map[uint64]bool)
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != string(fileMagic) {
		return 0, addrs, false, false
	}
	d := &dec{buf: data, off: len(fileMagic)}
	if d.str() != s.key.String() || d.err != nil {
		// Hash collision or hand-renamed file: wrong universe.
		return 0, addrs, false, false
	}
	validEnd = d.off
	for d.off < len(d.buf) {
		payload, ok := readFrame(d)
		if !ok {
			break // torn tail (or bit rot): keep the frames before it
		}
		u, err := decodeUnit(&dec{buf: payload})
		if err != nil {
			// CRC-valid framing around an undecodable payload: count it,
			// skip it, keep scanning — the following frames are intact.
			s.corrupt.Add(1)
			validEnd = d.off
			continue
		}
		addrs[u.Addr] = true
		validEnd = d.off
		if merge && s.mergeDisk(u) {
			gained = true
		}
	}
	return validEnd, addrs, true, gained
}

// load warm-starts the store at Open time: a shared-lock scan-merge.
func (t *diskTier) load(s *Store) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scanMerge(s)
}

// scanMerge reads and merges the file under a shared lock. Called with
// t.mu held. Returns true when the store gained units.
func (t *diskTier) scanMerge(s *Store) bool {
	lockf := t.acquire(false, s)
	if lockf == nil {
		t.lastScan = -1 // retry on a later miss
		return false
	}
	defer lockf.Unlock()
	data, err := t.fs.ReadFile(t.path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.ioFaults.Add(1)
			t.lastScan = -1
		} else {
			t.lastScan = 0
		}
		return false
	}
	_, addrs, headerOK, gained := t.scan(data, s, true)
	if headerOK {
		t.onDisk = addrs
	}
	t.lastScan = int64(len(data))
	return gained
}

// maybeMerge is the on-miss re-scan: every rescanEvery-th miss, if the
// shared file changed size since the last scan, merge it. This is how
// frames appended by other processes mid-run reach this one. Returns true
// when the store gained units (the caller retries its lookup).
func (t *diskTier) maybeMerge(s *Store) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	tick := t.missTick
	t.missTick++
	if tick%t.rescanEvery != 0 {
		return false
	}
	if t.lastScan >= 0 {
		fi, err := t.fs.Stat(t.path)
		if err != nil || fi.Size() == t.lastScan {
			return false
		}
	}
	gained := t.scanMerge(s)
	if gained && s.cache != nil {
		s.cache.maybeEvict(s, ^uint64(0))
	}
	return gained
}

// frame appends one length+CRC framed unit encoding to e.
func frame(e *enc, u *Unit) {
	var ue enc
	encodeUnit(&ue, u)
	e.u64(uint64(len(ue.buf)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(ue.buf))
	e.buf = append(e.buf, crc[:]...)
	e.buf = append(e.buf, ue.buf...)
}

// save persists the store to the shared file under the exclusive lock:
// re-scan + merge, truncate the torn tail, append this process's new
// frames — or rewrite whole (temp + rename) when eviction requires
// compaction or the file is new/foreign. Degrades on any storage fault;
// the returned error is diagnostic only.
func (t *diskTier) save(s *Store) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	units := s.snapshot()
	fresh := false
	for a := range units {
		if !t.onDisk[a] {
			fresh = true
			break
		}
	}
	if !fresh && !t.needCompact.Load() {
		return nil
	}

	lockf := t.acquire(true, s)
	if lockf == nil {
		return nil // degraded; counted in lockWaits/ioFaults
	}
	defer lockf.Unlock()

	data, err := t.fs.ReadFile(t.path)
	if err != nil && !os.IsNotExist(err) {
		s.ioFaults.Add(1)
		t.lastScan = -1
		return fmt.Errorf("tstore: save: %w", err)
	}
	validEnd, addrs, headerOK, _ := t.scan(data, s, true)
	if headerOK {
		t.onDisk = addrs
	}
	units = s.snapshot() // re-snapshot: the scan may have merged units

	if t.needCompact.Load() || !headerOK {
		return t.rewrite(s, units)
	}

	// Append path: fix the tail, then add only frames not yet on disk.
	newAddrs := make([]uint64, 0, len(units))
	for a := range units {
		if !t.onDisk[a] {
			newAddrs = append(newAddrs, a)
		}
	}
	if len(newAddrs) == 0 {
		return nil
	}
	sort.Slice(newAddrs, func(i, j int) bool { return newAddrs[i] < newAddrs[j] })

	f, err := t.fs.OpenFile(t.path, os.O_WRONLY, 0o644)
	if err != nil {
		s.ioFaults.Add(1)
		t.lastScan = -1
		return fmt.Errorf("tstore: save: %w", err)
	}
	defer f.Close()
	if validEnd < len(data) {
		if err := f.Truncate(int64(validEnd)); err != nil {
			s.ioFaults.Add(1)
			t.lastScan = -1
			return fmt.Errorf("tstore: save: %w", err)
		}
	}
	if _, err := f.Seek(int64(validEnd), io.SeekStart); err != nil {
		s.ioFaults.Add(1)
		t.lastScan = -1
		return fmt.Errorf("tstore: save: %w", err)
	}
	written := int64(validEnd)
	for _, a := range newAddrs {
		e := &enc{}
		frame(e, units[a])
		n, err := f.Write(e.buf)
		written += int64(n)
		if err != nil || n != len(e.buf) {
			// A torn or failed frame: stop appending — anything written
			// after a tear is unreachable until the next writer truncates
			// it back to this boundary. Frames already appended are fine.
			s.ioFaults.Add(1)
			t.lastScan = -1
			if err == nil {
				err = io.ErrShortWrite
			}
			return fmt.Errorf("tstore: save: %w", err)
		}
		t.onDisk[a] = true
	}
	if err := f.Sync(); err != nil {
		s.ioFaults.Add(1)
		t.lastScan = -1
		return fmt.Errorf("tstore: save: %w", err)
	}
	t.lastScan = written
	return nil
}

// rewrite compacts the file: header plus every live unit, written to a
// temp file and renamed over the original. Called with t.mu held and the
// exclusive lock taken. The lock file is a separate path precisely so this
// rename cannot strand a waiting locker on the orphaned inode.
func (t *diskTier) rewrite(s *Store, units map[uint64]*Unit) error {
	fail := func(err error) error {
		s.ioFaults.Add(1)
		t.lastScan = -1
		return fmt.Errorf("tstore: save: %w", err)
	}
	e := &enc{buf: append([]byte{}, fileMagic...)}
	e.str(s.key.String())
	addrs := make([]uint64, 0, len(units))
	for a := range units {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		frame(e, units[a])
	}
	tmp := t.path + ".compact"
	f, err := t.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fail(err)
	}
	if n, err := f.Write(e.buf); err != nil || n != len(e.buf) {
		f.Close()
		t.fs.Remove(tmp)
		if err == nil {
			err = io.ErrShortWrite
		}
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		t.fs.Remove(tmp)
		return fail(err)
	}
	if err := f.Close(); err != nil {
		t.fs.Remove(tmp)
		return fail(err)
	}
	if err := t.fs.Rename(tmp, t.path); err != nil {
		t.fs.Remove(tmp)
		return fail(err)
	}
	t.needCompact.Store(false)
	t.onDisk = make(map[uint64]bool, len(addrs))
	for _, a := range addrs {
		t.onDisk[a] = true
	}
	t.lastScan = int64(len(e.buf))
	return nil
}

// readFrame pulls one length+CRC framed payload; ok=false on any
// truncation or checksum failure.
func readFrame(d *dec) ([]byte, bool) {
	n, w := binary.Uvarint(d.buf[d.off:])
	if w <= 0 || n > uint64(len(d.buf)-d.off-w) {
		return nil, false
	}
	d.off += w
	if len(d.buf)-d.off < 4+int(n) {
		return nil, false
	}
	want := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	payload := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}
