// Package tstore is the content-addressed shared translation store: the
// analog of Valgrind's translation cache lifted out of the per-core caches
// so translation happens once per program image, not once per run.
//
// Translation in this system is deterministic: the same (image, tool)
// always produces the same compiled micro-op array. That makes translations
// content-addressable — a Key is the full set of inputs the translator
// consumes, with the image reduced to a content hash — and therefore
// shareable across cores, across sweep workers and across daemon jobs. The
// store lives and dies with its process, as Valgrind's translation table
// and cache do.
//
// A Unit carries the portable form of one translated superblock: its
// compiled code, and nothing of the IR it was lowered from, as Valgrind's
// translation cache keeps only generated host code. Portable means every
// embedded helper closure carries its (Name, Meta, Args) triple beside the
// closure itself: closures are bound to the core and tool instance that
// produced them, so an adopting core re-binds equivalent helpers of its own
// (copy-on-attach, implemented in internal/dbi). The slot table a core
// dispatches from stays in that core. Only the compiled engine attaches a
// store; the IR interpreter, kept as the differential oracle, always
// translates for itself.
//
// Units are published on demand, by the core that first translates a block.
// An ahead-of-execution pretranslation pipeline was removed: it never beat
// cold on-demand translation end to end.
//
// The store is bounded: a Cache may carry a byte cap, enforced by
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
	"unsafe"

	"repro/internal/guest"
	"repro/internal/vex"
)

// Key identifies one translation universe: every input that can change the
// bytes a translation produces. Two runs with equal Keys may share
// translations; any difference — a rebuilt image, another tool — yields a
// disjoint store.
type Key struct {
	// Image is the content hash of the guest image (ImageHash).
	Image string
	// Tool is the registry name of the tool ("none", "taskgrind",
	// "memcheck", ...). Registry names, not Tool.Name(): variants like
	// taskgrind-naive share a report name but may instrument differently.
	Tool string
}

// String renders the canonical form, which orders a cache's stores.
func (k Key) String() string {
	return fmt.Sprintf("img=%s/tool=%s", k.Image, k.Tool)
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
	// Code is the compiled micro-op form.
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
	// size is the host memory the unit holds, in bytes (0 in a standalone
	// store).
	size int64
}

// Store is the shared translation tier for a single Key: a concurrent
// address-indexed map of Units. All methods are safe for concurrent use.
type Store struct {
	key   Key
	cache *Cache // nil for a standalone store: no cap

	mu    sync.RWMutex
	units map[uint64]*slot
	// hand is the eviction clock position (an index into the sorted address
	// list, persisted across sweeps so the clock actually rotates).
	hand int

	// clock stamps adoptions; slot.gen snapshots it.
	clock atomic.Uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
}

// NewStore creates an empty standalone store for key (no cap).
func NewStore(key Key) *Store {
	return &Store{key: key, units: make(map[uint64]*slot)}
}

// Get returns the unit at addr, or nil. Hit/miss counters feed the
// amortization assertions and the daemon's metrics.
func (s *Store) Get(addr uint64) *Unit {
	s.mu.RLock()
	sl := s.units[addr]
	var u *Unit
	if sl != nil {
		u = sl.u
	}
	s.mu.RUnlock()
	if u == nil {
		s.misses.Add(1)
		return nil
	}
	sl.gen.Store(s.clock.Add(1))
	s.hits.Add(1)
	return u
}

// sizeOf measures the host memory a unit holds: its structs and the
// arrays its slices point to.
func sizeOf(u *Unit) int64 {
	c := u.Code
	n := unsafe.Sizeof(*u) + unsafe.Sizeof(*c) +
		uintptr(len(c.Ops))*unsafe.Sizeof(vex.UOp{}) +
		uintptr(len(c.PCs))*unsafe.Sizeof(uint64(0)) +
		uintptr(len(c.ICs))*unsafe.Sizeof(uint32(0))
	for i := range c.Ops {
		if d := c.Ops[i].Dirty; d != nil {
			n += unsafe.Sizeof(*d) +
				uintptr(len(d.Args))*unsafe.Sizeof(vex.CArg{}) +
				uintptr(len(d.Meta))*unsafe.Sizeof(uint64(0))
		}
	}
	return int64(n)
}

// track sizes an inserted slot and accounts it against the cache's byte
// total. Called with s.mu held, once per published unit; the total is
// atomic, so no lock ordering applies.
func (s *Store) track(sl *slot) {
	if s.cache == nil {
		return
	}
	sl.size = sizeOf(sl.u)
	s.cache.bytes.Add(sl.size)
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
		s.puts.Add(1)
		s.track(sl)
	}
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.maybeEvict(s, u.Addr)
	}
}

// Len returns the number of published units.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.units)
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
		s.evictions.Add(1)
		if s.cache != nil {
			s.cache.bytes.Add(-sl.size)
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
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Units:     s.Len(),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
	}
}

// Options configures a Cache.
type Options struct {
	// MaxBytes caps the host memory of cached units across all stores
	// (0 = unbounded). Enforced by clock eviction with hysteresis.
	MaxBytes int64
}

// Cache is a registry of stores, one per Key. A process typically holds
// one Cache (per sweep, per daemon) and every harness instance resolves
// its Store through it.
type Cache struct {
	opts Options

	mu     sync.Mutex
	stores map[Key]*Store

	bytes atomic.Int64
}

// NewCache creates an in-memory cache with no cap. dir must be "": the
// cache has no persistent tier.
func NewCache(dir string) *Cache {
	if dir != "" {
		panic("tstore: NewCache: the translation cache has no persistent tier")
	}
	return NewCacheOpts(Options{})
}

// NewCacheOpts creates a cache with explicit options.
func NewCacheOpts(opts Options) *Cache {
	return &Cache{opts: opts, stores: make(map[Key]*Store)}
}

// Open returns the store for key, creating it empty on first use.
func (c *Cache) Open(key Key) *Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.stores[key]; ok {
		return st
	}
	st := NewStore(key)
	st.cache = c
	c.stores[key] = st
	return st
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

// maybeEvict runs the clock sweep when the cache is over its byte cap,
// draining to ~7/8 of the cap (hysteresis, so each overflow triggers one
// sweep, not one per Put). The store that triggered the overflow is swept
// last and its newest address never evicted.
func (c *Cache) maybeEvict(trigger *Store, protect uint64) {
	limit := c.opts.MaxBytes
	if limit <= 0 || c.bytes.Load() <= limit {
		return
	}
	target := limit - limit/8
	need := func() bool { return c.bytes.Load() > target }
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
	// Bytes is the host memory of cached units.
	Bytes     int64
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Evictions uint64
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
	}
	return cs
}
