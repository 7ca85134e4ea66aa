package gmem

// Dirty-page generation tracking — the memory half of the checkpoint layer.
// When tracking is enabled, every guest-visible write stamps the touched page
// with the current generation; a checkpoint "cuts" the generation, harvesting
// exactly the pages written since the previous cut as a delta. Composing the
// boot snapshot with the deltas reconstructs memory at any cut, which is what
// lets a supervisor rewind a crashed run without copying the whole address
// space at every checkpoint.
//
// Tracking is strictly opt-in: with it off (the default) the write paths pay
// one predictable branch per access and allocate nothing.

import "sort"

// PageDump is one page's content at a cut. Data is PageSize bytes; an
// all-zero Data restores the page to its untouched state.
type PageDump struct {
	// Idx is the page index (address >> page shift).
	Idx  uint64
	Data []byte
}

// Addr returns the guest address of the page's first byte.
func (p PageDump) Addr() uint64 { return p.Idx << pageShift }

// EnableDirtyTracking turns on write tracking. Every currently resident page
// is marked dirty in the opening generation, so the first cut captures the
// loaded image (text, data) and anything touched before enabling.
func (m *Memory) EnableDirtyTracking() {
	if m.trackGen != 0 {
		return
	}
	m.trackGen = 1
	m.pageGen = make(map[uint64]uint64, len(m.pages))
	for idx := range m.pages {
		m.pageGen[idx] = m.trackGen
	}
	m.dirtyGen = 0 // invalidate the mark cache
}

// DirtyTracking reports whether write tracking is on.
func (m *Memory) DirtyTracking() bool { return m.trackGen != 0 }

// Gen returns the current dirty generation (0 when tracking is off).
func (m *Memory) Gen() uint64 { return m.trackGen }

// markDirty stamps a page with the current generation. The one-entry cache
// absorbs the common run of consecutive writes to the same page, so steady
// state costs a compare, not a map write.
func (m *Memory) markDirty(idx uint64) {
	if idx == m.dirtyIdx && m.trackGen == m.dirtyGen {
		return
	}
	m.pageGen[idx] = m.trackGen
	m.dirtyIdx, m.dirtyGen = idx, m.trackGen
}

// CutGeneration harvests every page written in the current generation,
// sorted by index, and opens a new generation: the delta between the
// previous cut (or EnableDirtyTracking) and now. Returns nil when tracking
// is off. Page contents are copied, so later guest writes cannot mutate a
// retained checkpoint.
func (m *Memory) CutGeneration() []PageDump {
	if m.trackGen == 0 {
		return nil
	}
	var out []PageDump
	for idx, gen := range m.pageGen {
		if gen != m.trackGen {
			continue
		}
		data := make([]byte, PageSize)
		if p := m.pages[idx]; p != nil {
			copy(data, p[:])
		}
		out = append(out, PageDump{Idx: idx, Data: data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx < out[j].Idx })
	m.trackGen++
	m.dirtyGen = 0
	return out
}

// DirtyPageCount returns how many pages are dirty in the current generation
// (diagnostics and overhead accounting).
func (m *Memory) DirtyPageCount() int {
	n := 0
	for _, gen := range m.pageGen {
		if gen == m.trackGen {
			n++
		}
	}
	return n
}

// WritePages restores page contents from dumps (host-privileged, like
// WriteBytes), refreshing the TLB entries of the pages it writes. Restored
// pages are marked dirty when tracking is on: after a rewind they differ
// from whatever the abandoned timeline left behind, so the next cut must
// carry them.
func (m *Memory) WritePages(pages []PageDump) {
	for _, pd := range pages {
		p := m.page(pd.Addr())
		copy(p[:], pd.Data)
		if m.trackGen != 0 {
			m.markDirty(pd.Idx)
		}
	}
}

// AllPages snapshots every resident page (sorted by index) — the full-state
// form used for boot baselines and fidelity checks, independent of the
// generation protocol.
func (m *Memory) AllPages() []PageDump {
	out := make([]PageDump, 0, len(m.pages))
	for idx, p := range m.pages {
		data := make([]byte, PageSize)
		copy(data, p[:])
		out = append(out, PageDump{Idx: idx, Data: data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx < out[j].Idx })
	return out
}

// SetRegions replaces the permission map wholesale (checkpoint restore).
// The slice must be sorted by Lo and non-overlapping, as produced by
// Regions.
func (m *Memory) SetRegions(regions []Region) {
	m.regions = append(m.regions[:0:0], regions...)
	m.dropSpans()
}
