// Package faultinject implements deterministic, seed-driven fault injection
// for robustness testing: heap allocation failure, fast-pool exhaustion,
// task-steal denial and scheduler perturbation. Each site that can fail pulls
// a decision from the injector; whether the Nth occurrence fires is a pure
// function of (seed, kind, N), so a failing run replays exactly from its
// command line — the same replayability contract the scheduler PRNG gives
// the race experiments.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Kind enumerates injectable faults.
type Kind int

// Fault kinds.
const (
	// HeapAlloc makes malloc (the program heap) return NULL.
	HeapAlloc Kind = iota
	// PoolAlloc makes the runtime fast pool return NULL (task/region
	// descriptors), as if __kmp_fast_allocate were exhausted.
	PoolAlloc
	// StealDeny makes a work-steal attempt fail (a contended victim deque).
	StealDeny
	// SchedPerturb shrinks a scheduler timeslice to a single block, forcing
	// extra preemption points.
	SchedPerturb
	// EnginePanic raises a host-side panic from inside the compiled
	// engine's block dispatch — a model of a JIT defect. Only the compiled
	// engine consults this kind, so falling back to the IR oracle
	// naturally sidesteps the injected defect (the graceful-degradation
	// acceptance path).
	EnginePanic
	// LockSpurious wakes a guest condvar waiter without a matching signal —
	// the POSIX-permitted spurious wakeup. Correct guest code re-checks its
	// predicate under the mutex and waits again; code that treats a wait
	// return as a signal breaks.
	LockSpurious
	// LockDelay perturbs a mutex handoff: the released lock is handed to a
	// different waiter than the seed-deterministic pick, modelling a delayed
	// wakeup losing the race to another contender.
	LockDelay
	// TrylockFail makes a guest mutex trylock fail even when the lock is
	// free — the "weak trylock" the POSIX spec allows and lock-free retry
	// loops must tolerate.
	TrylockFail
	// StoreReadErr makes a translation-store disk read fail with EIO.
	StoreReadErr
	// StoreWriteErr makes a translation-store disk write (or compaction
	// rename) fail with EIO.
	StoreWriteErr
	// StoreNoSpace makes a translation-store disk write fail with ENOSPC.
	StoreNoSpace
	// StoreShortWrite truncates a translation-store disk write halfway —
	// the torn frame a crash or a dying device leaves behind.
	StoreShortWrite
	// StoreBitFlip silently corrupts one byte of a translation-store disk
	// read — bit rot the CRC framing must catch.
	StoreBitFlip
	// StoreLockTimeout starves a translation-store advisory-lock
	// acquisition until its deadline.
	StoreLockTimeout
	numKinds
)

// Kinds lists every kind (tests iterate it).
var Kinds = []Kind{HeapAlloc, PoolAlloc, StealDeny, SchedPerturb, EnginePanic,
	LockSpurious, LockDelay, TrylockFail,
	StoreReadErr, StoreWriteErr, StoreNoSpace, StoreShortWrite, StoreBitFlip,
	StoreLockTimeout}

// StorageKinds lists the translation-store storage fault kinds — the ones
// drawn through FireStorage rather than Fire (tests iterate it).
var StorageKinds = []Kind{StoreReadErr, StoreWriteErr, StoreNoSpace,
	StoreShortWrite, StoreBitFlip, StoreLockTimeout}

// String returns the spec name of the kind.
func (k Kind) String() string {
	switch k {
	case HeapAlloc:
		return "heap"
	case PoolAlloc:
		return "pool"
	case StealDeny:
		return "steal"
	case SchedPerturb:
		return "sched"
	case EnginePanic:
		return "panic"
	case LockSpurious:
		return "spurious"
	case LockDelay:
		return "handoff"
	case TrylockFail:
		return "trylock"
	case StoreReadErr:
		return "tsread"
	case StoreWriteErr:
		return "tswrite"
	case StoreNoSpace:
		return "tsnospc"
	case StoreShortWrite:
		return "tsshort"
	case StoreBitFlip:
		return "tsflip"
	case StoreLockTimeout:
		return "tslock"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// kindFromName inverts String for spec parsing.
func kindFromName(s string) (Kind, bool) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// site is the per-kind injection state.
type site struct {
	// every fires the site once per `every` occurrences (0 = disabled).
	every uint64
	// offset phases the firing pattern within the period (seed-derived).
	offset uint64
	// seen counts decisions pulled; fired counts positive ones.
	seen  uint64
	fired uint64
}

// Injector decides, deterministically, which occurrences of each fault site
// fail. It is not internally synchronized: like the rest of the machine it is
// driven from the single-threaded scheduler loop.
type Injector struct {
	seed  uint64
	sites [numKinds]site

	// storageMu guards the StorageKinds sites, which — unlike every other
	// kind — are drawn from concurrent contexts (concurrent runs sharing
	// one translation cache, disk merges) via FireStorage.
	storageMu sync.Mutex

	// Observe, when set, taps every decision as it is drawn (fired or
	// not) — the hook the replay journal records injection streams
	// through.
	Observe func(kind Kind, fired bool)
	// OnFire, when set, is called for every decision that actually fires —
	// the hook the tracer records injection instants through.
	OnFire func(kind Kind)
}

// New creates an injector with no kinds enabled.
func New(seed uint64) *Injector {
	return &Injector{seed: seed}
}

// splitmix64 is the standard seed-expansion mix; it decorrelates the per-kind
// phase offsets from one another and from the scheduler PRNG stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Enable arms kind to fire once every `every` occurrences, at a seed-derived
// phase within the period. every <= 0 disables the kind.
func (in *Injector) Enable(kind Kind, every uint64) {
	if in == nil || kind < 0 || kind >= numKinds {
		return
	}
	s := &in.sites[kind]
	s.every = every
	if every > 0 {
		s.offset = splitmix64(in.seed^uint64(kind)*0x9e3779b97f4a7c15) % every
	}
}

// Fire reports whether this occurrence of kind should fail, and counts it.
// A nil injector never fires, so call sites keep an unconditional pointer.
func (in *Injector) Fire(kind Kind) bool {
	if in == nil || kind < 0 || kind >= numKinds {
		return false
	}
	s := &in.sites[kind]
	if s.every == 0 {
		return false
	}
	hit := (s.seen+s.offset)%s.every == 0
	s.seen++
	if hit {
		s.fired++
	}
	if in.Observe != nil {
		in.Observe(kind, hit)
	}
	if hit && in.OnFire != nil {
		in.OnFire(kind)
	}
	return hit
}

// FireStorage is Fire for the storage fault kinds. It differs in two ways
// forced by where storage I/O happens: it is thread-safe (disk reads and
// appends run on sweep workers and merge paths, concurrent with the
// scheduler loop), and it never enters the replay journal via Observe —
// by the degradation invariant a storage fault is guest-invisible (the run
// merely translates cold), so journaling its stream would only make replay
// depend on I/O interleaving. OnFire still runs so the tracer sees the
// injection instant.
func (in *Injector) FireStorage(kind Kind) bool {
	if in == nil || kind < 0 || kind >= numKinds {
		return false
	}
	in.storageMu.Lock()
	s := &in.sites[kind]
	if s.every == 0 {
		in.storageMu.Unlock()
		return false
	}
	hit := (s.seen+s.offset)%s.every == 0
	s.seen++
	if hit {
		s.fired++
	}
	in.storageMu.Unlock()
	if hit && in.OnFire != nil {
		in.OnFire(kind)
	}
	return hit
}

// Enabled reports whether any kind is armed.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	for i := range in.sites {
		if in.sites[i].every > 0 {
			return true
		}
	}
	return false
}

// Seen returns how many decisions kind has pulled.
func (in *Injector) Seen(kind Kind) uint64 {
	if in == nil || kind < 0 || kind >= numKinds {
		return 0
	}
	return in.sites[kind].seen
}

// Fired returns how many occurrences of kind failed.
func (in *Injector) Fired(kind Kind) uint64 {
	if in == nil || kind < 0 || kind >= numKinds {
		return 0
	}
	return in.sites[kind].fired
}

// ParseSpec builds an injector from a CLI spec: a comma-separated list of
// kind=period entries, e.g. "pool=7,steal=3". A period of N fires the kind
// once every N occurrences. Unknown kinds and malformed periods are errors.
func ParseSpec(spec string, seed uint64) (*Injector, error) {
	in := New(seed)
	if strings.TrimSpace(spec) == "" {
		return in, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad spec entry %q (want kind=period)", part)
		}
		kind, ok := kindFromName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("faultinject: unknown kind %q (have heap, pool, steal, sched, panic, spurious, handoff, trylock, tsread, tswrite, tsnospc, tsshort, tsflip, tslock)", name)
		}
		every, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil || every == 0 {
			return nil, fmt.Errorf("faultinject: bad period %q for %s", val, kind)
		}
		in.Enable(kind, every)
	}
	return in, nil
}

// Summary renders the per-kind fired/seen counts, sorted (diagnostics).
func (in *Injector) Summary() string {
	if in == nil {
		return ""
	}
	var parts []string
	for _, k := range Kinds {
		if in.sites[k].every > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d/%d", k, in.Fired(k), in.Seen(k)))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// PublishMetrics implements obs.MetricSource: per-kind injected/considered
// counters under the faultinject_* namespace.
func (in *Injector) PublishMetrics(reg *obs.Registry) {
	if in == nil || reg == nil {
		return
	}
	for _, k := range Kinds {
		if in.sites[k].every == 0 {
			continue
		}
		reg.Counter("faultinject_considered_total", "kind", k.String()).Set(in.Seen(k))
		reg.Counter("faultinject_injected_total", "kind", k.String()).Set(in.Fired(k))
	}
}
