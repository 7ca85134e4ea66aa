// Package tstore is the content-addressed shared translation store: the
// analog of Valgrind's translation cache lifted out of the per-core caches
// so translation happens once per program image, not once per run.
//
// Translation in this system is deterministic: the same (image, tool)
// always produces the same compiled micro-op array. That makes translations
// content-addressable — a Key is the full set of inputs the translator
// consumes, with the image reduced to a content hash — and therefore
// shareable across cores, across sweep workers, across daemon jobs, and
// (via the on-disk tier) across concurrent processes and process restarts.
//
// A Unit carries the portable form of one translated superblock: its
// compiled code, and nothing of the IR it was lowered from, as Valgrind's
// translation cache keeps only generated host code. Portable means every
// embedded helper closure is represented by its (Name, Meta, Args) triple
// rather than the closure itself: closures are bound to the core and tool
// instance that produced them, so an adopting core re-binds equivalent
// helpers of its own (copy-on-attach, implemented in internal/dbi).
// Everything per-thread and mutable — chain predictions, dispatch tables,
// generation counters — stays in the adopting core. Only the compiled
// engine attaches a store; the IR interpreter, kept as the differential
// oracle, always translates for itself.
//
// Units are published on demand, by the core that first translates a block.
// An ahead-of-execution pretranslation pipeline was removed: it never beat
// cold on-demand translation end to end.
//
// The store is bounded: a Cache may carry byte and unit caps, enforced by
// clock-style (second-chance) eviction over generation-stamped adoption
// times. Evicting a unit is always safe — cores keep their own copies of
// adopted blocks, so a re-miss merely retranslates — which is why a cheap
// approximate policy suffices.
package tstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guest"
	"repro/internal/vex"
)

// FormatVersion is baked into every Key (and therefore every on-disk file
// header). Bump it whenever the unit encoding, the IR, the micro-op set or
// the translator's output changes shape: old files then simply never match
// and the store starts cold instead of serving stale translations.
//
// Version 2 dropped the superblock-extension budget from the key and the
// extension-seam count and pretranslated flag from the unit encoding.
// Dropping the delivery mode from the key changed the key string, and with
// it every file name, but not the unit encoding, so the version stayed.
// Version 3 dropped the engine from the key and the IR from the unit: a
// unit is its address and compiled code, which records the IR's statement
// count.
const FormatVersion = 3

// Key identifies one translation universe: every input that can change the
// bytes a translation produces. Two runs with equal Keys may share
// translations; any difference — a rebuilt image, another tool, a bumped
// format — yields a disjoint store.
type Key struct {
	// Image is the content hash of the guest image (ImageHash).
	Image string
	// Tool is the registry name of the tool ("none", "taskgrind",
	// "memcheck", ...). Registry names, not Tool.Name(): variants like
	// taskgrind-naive share a report name but may instrument differently.
	Tool string
	// Version pins the store format; NewKey sets it to FormatVersion.
	Version int
}

// String renders the canonical form hashed into the on-disk file name and
// written into the file header.
func (k Key) String() string {
	return fmt.Sprintf("v%d/img=%s/tool=%s", k.Version, k.Image, k.Tool)
}

// ImageHash computes the content hash of a guest image: text, data, entry,
// host imports, TLS size, symbols and line tables. Symbols and lines are
// included because tools instrument by symbol (taskgrind's runtime-symbol
// filter) and report by source line — a relinked image with moved symbols
// must not be served another image's translations.
func ImageHash(im *guest.Image) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wstr := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	w64(uint64(len(im.Text)))
	for _, t := range im.Text {
		w64(t)
	}
	w64(uint64(len(im.Data)))
	h.Write(im.Data)
	w64(im.Entry)
	w64(im.TLSSize)
	w64(uint64(len(im.HostImports)))
	for _, s := range im.HostImports {
		wstr(s)
	}
	w64(uint64(len(im.Symbols)))
	for _, s := range im.Symbols {
		wstr(s.Name)
		w64(s.Addr)
		w64(s.Size)
		w64(uint64(s.Kind))
	}
	w64(uint64(len(im.Lines)))
	for _, l := range im.Lines {
		w64(l.Addr)
		w64(l.Len)
		wstr(l.File)
		w64(uint64(l.Line))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Unit is one translated superblock in portable form. Units are immutable
// once published.
type Unit struct {
	// Addr is the guest entry address of the superblock.
	Addr uint64
	// Code is the compiled micro-op form. In a disk-loaded unit the dirty
	// ops carry nil Fn until a core re-binds them.
	Code *vex.Compiled
}

// slot wraps a published unit with the bookkeeping the eviction clock
// needs. The unit pointer is guarded by the store mutex; gen is atomic so
// adoptions can stamp it without writing the map.
type slot struct {
	u *Unit
	// gen is the store clock value at the unit's last adoption (Get hit);
	// 0 = published but never adopted.
	gen atomic.Uint64
	// seen is gen as observed at the eviction hand's last visit (guarded by
	// the store mutex). gen == seen at a visit means no adoption since —
	// the unit's second chance is spent and it is evicted.
	seen uint64
	// size is the unit's encoded size in bytes (0 when the cache carries no
	// byte cap — exact sizing costs an encode, so it is pay-for-play).
	size int64
}

// Store is the shared translation tier for a single Key: a concurrent
// address-indexed map of Units. All methods are safe for concurrent use.
type Store struct {
	key   Key
	cache *Cache    // nil for a standalone store: no caps, no disk
	disk  *diskTier // nil when memory-only

	mu    sync.RWMutex
	units map[uint64]*slot
	// evicted records addresses the eviction clock dropped, so a disk merge
	// does not resurrect them (the shared file keeps their frames until the
	// next compaction). Cleared when the address is translated again.
	evicted map[uint64]bool
	// hand is the eviction clock position (an index into the sorted address
	// list, persisted across sweeps so the clock actually rotates).
	hand int

	// clock stamps adoptions; slot.gen snapshots it.
	clock atomic.Uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
	corrupt   atomic.Uint64
	ioFaults  atomic.Uint64
	lockWaits atomic.Uint64
	merged    atomic.Uint64
}

// NewStore creates an empty standalone store for key (no caps, no disk).
func NewStore(key Key) *Store {
	return &Store{key: key, units: make(map[uint64]*slot), evicted: make(map[uint64]bool)}
}

// Get returns the unit at addr, or nil. A miss on a disk-backed store may
// trigger a throttled re-scan of the shared file — the path by which a warm
// process's frames seed a cold one mid-run. Hit/miss counters feed the
// amortization assertions and the daemon's metrics.
func (s *Store) Get(addr uint64) *Unit {
	s.mu.RLock()
	sl := s.units[addr]
	var u *Unit
	if sl != nil {
		u = sl.u
	}
	s.mu.RUnlock()
	if u == nil && s.disk != nil && s.disk.maybeMerge(s) {
		s.mu.RLock()
		if sl = s.units[addr]; sl != nil {
			u = sl.u
		}
		s.mu.RUnlock()
	}
	if u == nil {
		s.misses.Add(1)
		return nil
	}
	sl.gen.Store(s.clock.Add(1))
	s.hits.Add(1)
	return u
}

// sizeOf measures a unit's encoded footprint (frame overhead included).
func sizeOf(u *Unit) int64 {
	var e enc
	encodeUnit(&e, u)
	return int64(len(e.buf)) + 16
}

// track accounts an inserted slot against the cache totals. Called with
// s.mu held; cache totals are atomics, so no lock ordering applies.
func (s *Store) track(sl *slot) {
	if s.cache == nil {
		return
	}
	if s.cache.opts.MaxBytes > 0 {
		sl.size = sizeOf(sl.u)
		s.cache.bytes.Add(sl.size)
	}
	s.cache.totalUnits.Add(1)
}

// Put publishes a unit unless the address already has one. Determinism
// makes every published value for one address equivalent, so "first wins"
// is a performance policy, not a correctness one.
func (s *Store) Put(u *Unit) {
	if u == nil || u.Code == nil {
		return
	}
	s.mu.Lock()
	if s.units[u.Addr] == nil {
		sl := &slot{u: u}
		s.units[u.Addr] = sl
		delete(s.evicted, u.Addr)
		s.puts.Add(1)
		s.track(sl)
	}
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.maybeEvict(s, u.Addr)
	}
}

// mergeDisk publishes a unit read from the shared file: Put semantics, but
// counted as a merge rather than a translation, and blocked for addresses
// this process evicted (their frames persist on disk until compaction).
// Returns true when the store gained the unit.
func (s *Store) mergeDisk(u *Unit) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted[u.Addr] || s.units[u.Addr] != nil {
		return false
	}
	sl := &slot{u: u}
	s.units[u.Addr] = sl
	s.merged.Add(1)
	s.track(sl)
	return true
}

// Len returns the number of published units.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.units)
}

// snapshot returns the current unit set (for the disk tier).
func (s *Store) snapshot() map[uint64]*Unit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := make(map[uint64]*Unit, len(s.units))
	for a, sl := range s.units {
		m[a] = sl.u
	}
	return m
}

// sweep advances the eviction clock over this store until need() reports
// satisfied or every unit has been visited twice (the second-chance bound).
// protect pins the address whose insertion triggered the sweep — evicting
// the unit we just published would thrash.
func (s *Store) sweep(need func() bool, protect uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.units) == 0 {
		return
	}
	addrs := make([]uint64, 0, len(s.units))
	for a := range s.units {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for visits := 0; visits < 2*len(addrs) && need(); visits++ {
		a := addrs[s.hand%len(addrs)]
		s.hand++
		if a == protect {
			continue
		}
		sl := s.units[a]
		if sl == nil {
			continue
		}
		if g := sl.gen.Load(); g != sl.seen {
			sl.seen = g // adopted since last visit: spare once
			continue
		}
		delete(s.units, a)
		s.evicted[a] = true
		s.evictions.Add(1)
		if s.cache != nil {
			s.cache.bytes.Add(-sl.size)
			s.cache.totalUnits.Add(-1)
		}
		if s.disk != nil {
			s.disk.needCompact.Store(true)
		}
	}
}

// Stats is a point-in-time snapshot of one store's counters.
type Stats struct {
	Units  int
	Hits   uint64
	Misses uint64
	// Puts counts distinct units published — the number of actual
	// translations performed against this store across all attached cores.
	Puts uint64
	// Evictions counts units dropped by the clock sweep.
	Evictions uint64
	// CorruptFrames counts disk frames whose CRC passed but whose payload
	// failed to decode — corruption past the framing layer, skipped
	// without discarding the rest of the tier.
	CorruptFrames uint64
	// IOFaults counts disk-tier operations that failed (EIO, ENOSPC, short
	// writes, rename failures); each one degraded to cold translation.
	IOFaults uint64
	// LockWaits counts advisory-lock acquisitions that timed out; each one
	// skipped its merge or persist and degraded to cold translation.
	LockWaits uint64
	// Merged counts units adopted from other processes through the shared
	// file rather than translated locally.
	Merged uint64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Units:         s.Len(),
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Puts:          s.puts.Load(),
		Evictions:     s.evictions.Load(),
		CorruptFrames: s.corrupt.Load(),
		IOFaults:      s.ioFaults.Load(),
		LockWaits:     s.lockWaits.Load(),
		Merged:        s.merged.Load(),
	}
}

// Options configures a Cache.
type Options struct {
	// Dir is the backing directory; "" keeps the cache purely in-memory.
	Dir string
	// FS routes all disk-tier I/O; nil means the real filesystem. Tests
	// and the CLI substitute a FaultFS here.
	FS FS
	// MaxBytes caps the total encoded size of cached units across all
	// stores (0 = unbounded). Enforced by clock eviction with hysteresis.
	MaxBytes int64
	// MaxUnits caps the total unit count across all stores (0 = unbounded).
	MaxUnits int64
	// RescanEvery throttles on-miss re-scans of the shared file: every Nth
	// store miss checks whether the file grew (0 = default 64).
	RescanEvery uint64
	// LockTimeout bounds advisory-lock acquisition; a timed-out lock
	// degrades the operation to cold translation (0 = default 2s).
	LockTimeout time.Duration
}

// Cache is a registry of stores, one per Key, optionally backed by an
// on-disk directory shared with other processes. A process typically holds
// one Cache (per sweep, per daemon, per CLI invocation) and every harness
// instance resolves its Store through it.
type Cache struct {
	opts Options
	fs   FS

	mu     sync.Mutex
	stores map[Key]*Store

	bytes      atomic.Int64
	totalUnits atomic.Int64
}

// NewCache creates a cache backed by dir on the real filesystem, with no
// caps. dir == "" keeps the cache purely in-memory.
func NewCache(dir string) *Cache {
	return NewCacheOpts(Options{Dir: dir})
}

// NewCacheOpts creates a cache with explicit options.
func NewCacheOpts(opts Options) *Cache {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.RescanEvery == 0 {
		opts.RescanEvery = 64
	}
	if opts.LockTimeout == 0 {
		opts.LockTimeout = 2 * time.Second
	}
	return &Cache{opts: opts, fs: opts.FS, stores: make(map[Key]*Store)}
}

// Dir returns the backing directory ("" for memory-only).
func (c *Cache) Dir() string { return c.opts.Dir }

// Open returns the store for key, creating it (and warm-loading it from
// the shared file, when the cache is directory-backed) on first use. Disk
// problems — missing file, stale format, torn tail, corruption, I/O
// errors, starved locks — degrade to a cold store, never to an error: the
// store is an accelerator, not a dependency.
func (c *Cache) Open(key Key) *Store {
	if key.Version == 0 {
		key.Version = FormatVersion
	}
	c.mu.Lock()
	if st, ok := c.stores[key]; ok {
		c.mu.Unlock()
		return st
	}
	st := NewStore(key)
	st.cache = c
	if c.opts.Dir != "" {
		st.disk = newDiskTier(c, key)
		st.disk.load(st) // best-effort warm start
	}
	c.stores[key] = st
	c.mu.Unlock()
	c.maybeEvict(st, ^uint64(0))
	return st
}

// Save persists every directory-backed store: under an exclusive advisory
// lock it merges frames other processes appended, truncates any torn tail,
// appends only this process's new frames, and compacts the file when
// eviction shrank the store. Memory-only caches no-op. Storage faults
// degrade (counters bumped); the first error is returned for diagnostics
// only — the cache remains usable.
func (c *Cache) Save() error {
	if c.opts.Dir == "" {
		return nil
	}
	var first error
	for _, st := range c.snapshotStores() {
		if st.disk == nil {
			continue
		}
		if err := st.disk.save(st); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Cache) snapshotStores() []*Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	stores := make([]*Store, 0, len(c.stores))
	for _, st := range c.stores {
		stores = append(stores, st)
	}
	sort.Slice(stores, func(i, j int) bool {
		return stores[i].key.String() < stores[j].key.String()
	})
	return stores
}

// overCap reports whether the cache exceeds its configured caps.
func (c *Cache) overCap() bool {
	if c.opts.MaxBytes > 0 && c.bytes.Load() > c.opts.MaxBytes {
		return true
	}
	if c.opts.MaxUnits > 0 && c.totalUnits.Load() > c.opts.MaxUnits {
		return true
	}
	return false
}

// maybeEvict runs the clock sweep when the cache is over a cap, draining
// to ~7/8 of the cap (hysteresis, so each overflow triggers one sweep, not
// one per Put). The store that triggered the overflow is swept last and
// its newest address never evicted.
func (c *Cache) maybeEvict(trigger *Store, protect uint64) {
	if !c.overCap() {
		return
	}
	needBytes := int64(0)
	if c.opts.MaxBytes > 0 {
		needBytes = c.opts.MaxBytes - c.opts.MaxBytes/8
	}
	needUnits := int64(0)
	if c.opts.MaxUnits > 0 {
		needUnits = c.opts.MaxUnits - c.opts.MaxUnits/8
	}
	need := func() bool {
		if needBytes > 0 && c.bytes.Load() > needBytes {
			return true
		}
		if needUnits > 0 && c.totalUnits.Load() > needUnits {
			return true
		}
		return false
	}
	for _, st := range c.snapshotStores() {
		if st == trigger {
			continue
		}
		st.sweep(need, ^uint64(0))
	}
	trigger.sweep(need, protect)
}

// CacheStats aggregates all stores in a cache.
type CacheStats struct {
	Stores int
	Units  int
	// Bytes is the tracked encoded size of cached units (0 unless a byte
	// cap is configured — sizing is pay-for-play).
	Bytes         int64
	Hits          uint64
	Misses        uint64
	Puts          uint64
	Evictions     uint64
	CorruptFrames uint64
	IOFaults      uint64
	LockWaits     uint64
	Merged        uint64
}

// Stats sums the counters of every open store.
func (c *Cache) Stats() CacheStats {
	stores := c.snapshotStores()
	var cs CacheStats
	cs.Stores = len(stores)
	cs.Bytes = c.bytes.Load()
	for _, st := range stores {
		s := st.Stats()
		cs.Units += s.Units
		cs.Hits += s.Hits
		cs.Misses += s.Misses
		cs.Puts += s.Puts
		cs.Evictions += s.Evictions
		cs.CorruptFrames += s.CorruptFrames
		cs.IOFaults += s.IOFaults
		cs.LockWaits += s.LockWaits
		cs.Merged += s.Merged
	}
	return cs
}
