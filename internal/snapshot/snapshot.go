// Package snapshot is the checkpoint/replay substrate of the robustness
// layer: serializable snapshots of guest machine state (registers, dirty
// memory pages, scheduler bookkeeping, PRNG position), a bounded-history
// checkpoint manager, and a schedule journal that records — or verifies —
// every scheduling decision and fault-injection draw. The replay token that
// names a run's configuration lives with that configuration, in
// internal/explore.
//
// The design leans on the same property Valgrind's serialized scheduler
// gives the paper's experiments: with one guest thread running at a time and
// every non-deterministic choice drawn from seeded streams, a run is a pure
// function of its configuration. Checkpoints therefore never need to
// serialize host-side tool or runtime object graphs — a rewind reconstructs
// them by deterministic re-execution, and the snapshot's job is to *verify*
// (cheaply, via digests and dirty-page deltas) that the reconstruction is
// bit-faithful before the run resumes.
package snapshot

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/gmem"
	"repro/internal/guest"
)

// Frame mirrors one shadow call stack entry (vm.Frame, kept dependency-free
// so vm can import this package).
type Frame struct {
	Fn, CallSite, SP uint64
}

// ThreadState is one guest thread's serializable state at a checkpoint.
type ThreadState struct {
	ID          int
	Regs        [guest.NumRegs]uint64
	PC          uint64
	State       uint8
	BlockReason string
	StackLo     uint64
	StackHi     uint64
	TLSBase     uint64
	TLSGen      uint64
	CallStack   []Frame
	Blocks      uint64
	Instrs      uint64
}

// Checkpoint is a serializable snapshot of guest machine state, taken at a
// timeslice boundary. Pages holds only the delta since the previous
// checkpoint (the gmem generation cut); the Manager composes deltas into
// full states.
type Checkpoint struct {
	// Seq numbers checkpoints from 1 within a run.
	Seq uint64
	// Scheduler position and counters.
	Slices      uint64
	Blocks      uint64
	Instrs      uint64
	Switches    uint64
	Preemptions uint64
	// Contained-failure counters.
	GuestFaults   uint64
	HostPanics    uint64
	WatchdogTrips uint64
	// RNG is the scheduler PRNG stream position.
	RNG uint64
	// Exited/ExitCode capture program termination state.
	Exited   bool
	ExitCode uint64
	// NextStackTop/NextTLS are the machine's thread-resource cursors.
	NextStackTop uint64
	NextTLS      uint64
	// CacheGen is the DBI translation-cache generation at capture.
	CacheGen uint64
	Threads  []ThreadState
	// Pages is the dirty-page delta since the previous checkpoint.
	Pages []gmem.PageDump
	// Regions is the full permission map (small: heap maps coalesce).
	Regions []gmem.Region
	// Digest is the cheap state hash over registers, PCs and counters —
	// the value the online divergence probe cross-checks (see Journal
	// marks). It intentionally excludes memory: hashing resident pages
	// every checkpoint would dominate; memory fidelity is covered by the
	// dirty-page deltas themselves and by the full-hash fidelity tests.
	Digest uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one 64-bit word into an FNV-1a accumulator.
func mix(h, v uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (v >> shift & 0xff)) * fnvPrime
	}
	return h
}

// ComputeDigest (re)computes the checkpoint's state digest from its
// scheduler counters and thread states.
func (c *Checkpoint) ComputeDigest() uint64 {
	h := uint64(fnvOffset)
	for _, v := range []uint64{c.Slices, c.Blocks, c.Instrs, c.Switches, c.RNG} {
		h = mix(h, v)
	}
	for _, t := range c.Threads {
		h = mix(h, uint64(t.ID))
		h = mix(h, t.PC)
		h = mix(h, uint64(t.State))
		h = mix(h, t.Instrs)
		for _, r := range t.Regs {
			h = mix(h, r)
		}
		for _, f := range t.CallStack {
			h = mix(h, f.Fn)
			h = mix(h, f.CallSite)
			h = mix(h, f.SP)
		}
	}
	return h
}

// Encode serializes the checkpoint (gob).
func (c *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint deserializes a checkpoint produced by Encode.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	return &c, nil
}

// Diff compares two checkpoints' guest-visible state (everything except the
// page deltas, whose partitioning depends on checkpoint cadence) and returns
// a description of the first mismatch, or nil when the states agree. Used by
// the supervisor to verify a replayed reconstruction against the recorded
// checkpoint before resuming.
func (c *Checkpoint) Diff(o *Checkpoint) error {
	if c.Slices != o.Slices || c.Blocks != o.Blocks || c.Instrs != o.Instrs {
		return fmt.Errorf("snapshot: position mismatch: slices/blocks/instrs %d/%d/%d vs %d/%d/%d",
			c.Slices, c.Blocks, c.Instrs, o.Slices, o.Blocks, o.Instrs)
	}
	if c.RNG != o.RNG {
		return fmt.Errorf("snapshot: PRNG stream diverged at slice %d", c.Slices)
	}
	if len(c.Threads) != len(o.Threads) {
		return fmt.Errorf("snapshot: thread count %d vs %d", len(c.Threads), len(o.Threads))
	}
	for i := range c.Threads {
		a, b := &c.Threads[i], &o.Threads[i]
		if a.PC != b.PC || a.State != b.State || a.Regs != b.Regs {
			return fmt.Errorf("snapshot: thread %d state diverged at slice %d (pc %#x vs %#x)",
				a.ID, c.Slices, a.PC, b.PC)
		}
	}
	if c.Digest != o.Digest {
		return fmt.Errorf("snapshot: digest mismatch at slice %d", c.Slices)
	}
	return nil
}

// Manager retains a bounded history of checkpoints plus a base page image.
// Dropping an old checkpoint folds its page delta into the base, so the
// manager can always reconstruct full memory at any retained checkpoint
// while holding each page at most twice (base + newest delta containing it).
type Manager struct {
	// Retain bounds the retained checkpoint history (default 4).
	Retain int

	base        map[uint64][]byte
	baseRegions []gmem.Region
	ckpts       []*Checkpoint

	// Taken counts checkpoints ever added; Dropped counts those folded
	// into the base. PageBytes approximates retained page payload.
	Taken     uint64
	Dropped   uint64
	PageBytes uint64
}

// NewManager creates a manager retaining up to retain checkpoints
// (retain <= 0 selects the default of 4).
func NewManager(retain int) *Manager {
	if retain <= 0 {
		retain = 4
	}
	return &Manager{Retain: retain, base: make(map[uint64][]byte)}
}

// SetBase installs the boot-time full page image (gmem.AllPages) and
// permission map: the state checkpoint zero deltas build on.
func (mgr *Manager) SetBase(pages []gmem.PageDump, regions []gmem.Region) {
	for _, pd := range pages {
		mgr.base[pd.Idx] = append([]byte(nil), pd.Data...)
		mgr.PageBytes += uint64(len(pd.Data))
	}
	mgr.baseRegions = append([]gmem.Region(nil), regions...)
}

// Add appends a checkpoint, folding the oldest into the base when the
// retention bound is exceeded.
func (mgr *Manager) Add(cp *Checkpoint) {
	mgr.Taken++
	for _, pd := range cp.Pages {
		mgr.PageBytes += uint64(len(pd.Data))
	}
	mgr.ckpts = append(mgr.ckpts, cp)
	for len(mgr.ckpts) > mgr.Retain {
		old := mgr.ckpts[0]
		mgr.ckpts = mgr.ckpts[1:]
		for _, pd := range old.Pages {
			if prev, ok := mgr.base[pd.Idx]; ok {
				mgr.PageBytes -= uint64(len(prev))
			}
			mgr.base[pd.Idx] = pd.Data
		}
		mgr.baseRegions = old.Regions
		mgr.Dropped++
	}
}

// Latest returns the newest retained checkpoint, or nil.
func (mgr *Manager) Latest() *Checkpoint {
	if len(mgr.ckpts) == 0 {
		return nil
	}
	return mgr.ckpts[len(mgr.ckpts)-1]
}

// Checkpoints returns the retained history, oldest first.
func (mgr *Manager) Checkpoints() []*Checkpoint { return mgr.ckpts }

// PageAt returns the content of page idx as of checkpoint cp (which must be
// retained): the newest dump at or before cp, falling back to the base
// image. ok=false means the page was untouched at cp (all zero).
func (mgr *Manager) PageAt(cp *Checkpoint, idx uint64) (data []byte, ok bool) {
	pos := -1
	for i, c := range mgr.ckpts {
		if c == cp {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, false
	}
	for i := pos; i >= 0; i-- {
		for _, pd := range mgr.ckpts[i].Pages {
			if pd.Idx == idx {
				return pd.Data, true
			}
		}
	}
	d, ok := mgr.base[idx]
	return d, ok
}

// PagesAt composes the full page image at a retained checkpoint: base plus
// every delta up to and including cp. The result maps page index to content.
func (mgr *Manager) PagesAt(cp *Checkpoint) map[uint64][]byte {
	out := make(map[uint64][]byte, len(mgr.base))
	for idx, d := range mgr.base {
		out[idx] = d
	}
	for _, c := range mgr.ckpts {
		for _, pd := range c.Pages {
			out[pd.Idx] = pd.Data
		}
		if c == cp {
			break
		}
	}
	return out
}
