package core

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/itree"
	"repro/internal/report"
	"repro/internal/seggraph"
)

// Fini implements dbi.Tool: the post-mortem determinacy-race analysis —
// Algorithm 1 of the paper. It closes the segment graph, compares every
// unordered pair of segments, intersects write sets against read∪write sets,
// applies the TLS and stack-frame suppressions, and renders reports.
//
// The pass is embarrassingly parallel over the first segment of each pair;
// Opt.AnalysisWorkers > 1 runs it with a worker pool (the paper's
// future-work item), with a deterministic merge.
func (tg *Taskgrind) Fini(c *dbi.Core) {
	tg.flushThreads()
	tg.graph.Close()
	tg.buildLifetimeIndex(c)

	active := tg.freeze()

	workers := tg.Opt.AnalysisWorkers
	if workers <= 1 {
		tg.analyzeSlice(active, 0, len(active), &tg.Reports, &tg.Stats)
		tg.RaceCount = tg.Stats.ConflictPairs
		tg.Reports.Sort()
		return
	}

	// Parallel pass: disjoint slices of the outer loop, merged in order.
	type part struct {
		set   report.Set
		stats Stats
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(active) * w / workers
		hi := len(active) * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			tg.analyzeSlice(active, lo, hi, &parts[w].set, &parts[w].stats)
		}(w, lo, hi)
	}
	wg.Wait()
	for i := range parts {
		tg.Stats.PairsChecked += parts[i].stats.PairsChecked
		tg.Stats.ConflictPairs += parts[i].stats.ConflictPairs
		tg.Stats.SuppressedTLS += parts[i].stats.SuppressedTLS
		tg.Stats.SuppressedStack += parts[i].stats.SuppressedStack
		tg.Stats.ReportsTotal += parts[i].stats.ReportsTotal
		tg.Reports.Races = append(tg.Reports.Races, parts[i].set.Races...)
	}
	tg.RaceCount = tg.Stats.ConflictPairs
	tg.Reports.Sort()
}

// frozen is a segment with its access trees flattened for the analysis
// pass; the slices live only as long as Fini.
type frozen struct {
	*Segment
	reads, writes []itree.Interval
}

// freeze returns the segments with any recorded access — the only ones
// Algorithm 1 compares — with their trees flattened into sorted slices of
// one shared backing array. It runs once, serially, so every pair (and
// every parallel worker) intersects plain arrays without touching a tree.
func (tg *Taskgrind) freeze() []frozen {
	n := 0
	for _, s := range tg.segs {
		n += s.Reads.Len() + s.Writes.Len()
	}
	flat := make([]itree.Interval, 0, n)
	active := make([]frozen, 0, len(tg.segs))
	for _, s := range tg.segs {
		if s.Reads.Empty() && s.Writes.Empty() {
			continue
		}
		r := len(flat)
		flat = s.Reads.AppendIntervals(flat)
		w := len(flat)
		flat = s.Writes.AppendIntervals(flat)
		active = append(active, frozen{s, flat[r:w:w], flat[w:]})
	}
	return active
}

// analyzeSlice compares active[lo:hi] against every later active segment.
func (tg *Taskgrind) analyzeSlice(active []frozen, lo, hi int, out *report.Set, st *Stats) {
	for i := lo; i < hi; i++ {
		s1 := active[i]
		for j := i + 1; j < len(active); j++ {
			s2 := active[j]
			st.PairsChecked++
			if tg.graph.Ordered(s1.Node, s2.Node) {
				continue
			}
			tg.checkPair(s1, s2, out, st)
		}
	}
}

// checkPair implements the body of Algorithm 1 for one unordered pair:
// s1.w ∩ (s2.r ∪ s2.w), plus the symmetric s2.w ∩ s1.r.
func (tg *Taskgrind) checkPair(f1, f2 frozen, out *report.Set, st *Stats) {
	s1, s2 := f1.Segment, f2.Segment
	if tg.believed != nil && s1.TaskID != s2.TaskID &&
		(tg.believed[[2]uint64{s1.TaskID, s2.TaskID}] ||
			tg.believed[[2]uint64{s2.TaskID, s1.TaskID}]) {
		return
	}
	// conf is built only once a pair conflicts: most unordered pairs
	// share nothing.
	var conf *itree.Tree
	kinds := ""
	collect := func(a, b []itree.Interval, kind string) {
		found := false
		itree.Intersect(a, b, func(lo, hi uint64) {
			if tg.suppressed(s1, s2, lo, st) {
				return
			}
			if conf == nil {
				conf = itree.New()
			}
			conf.Insert(lo, hi)
			found = true
		})
		if found {
			if kinds != "" {
				kinds += ","
			}
			kinds += kind
		}
	}
	collect(f1.writes, f2.writes, "w/w")
	collect(f1.writes, f2.reads, "w/r")
	collect(f2.writes, f1.reads, "r/w")
	if conf == nil {
		return
	}
	st.ConflictPairs++
	st.ReportsTotal++
	if out.Len() >= tg.Opt.MaxReports {
		return
	}
	r := &report.Race{
		SegA: s1.Label, SegB: s2.Label,
		ThreadA: s1.Thread, ThreadB: s2.Thread,
		Kind: kinds,
	}
	conf.Visit(func(iv itree.Interval) bool {
		rg := report.Range{Lo: iv.Lo, Hi: iv.Hi, Region: classify(iv.Lo)}
		if rg.Region == report.RegionHeap || rg.Region == report.RegionPool {
			if blk := tg.c.FindBlock(iv.Lo); blk != nil {
				rg.BlockAddr = blk.Addr
				rg.BlockSize = blk.Size
				for _, pc := range blk.Stack {
					rg.BlockStack = append(rg.BlockStack, tg.locate(pc))
					if len(rg.BlockStack) >= 4 {
						break
					}
				}
			}
		}
		r.Ranges = append(r.Ranges, rg)
		return true
	})
	out.Add(r)
}

// suppressed applies the §IV-C (TLS) and §IV-D (stack frame) filters to a
// conflicting range starting at lo.
func (tg *Taskgrind) suppressed(s1, s2 *Segment, lo uint64, st *Stats) bool {
	switch classify(lo) {
	case report.RegionTLS:
		if tg.Opt.TLSSuppression && s1.Thread == s2.Thread && s1.TLSGen == s2.TLSGen {
			st.SuppressedTLS++
			return true
		}
	case report.RegionStack:
		// Registered-frame confrontation: an address below both
		// segments' registered frames was created inside each segment
		// (segment-local storage reuse, §IV-D).
		if tg.Opt.StackSuppression && lo < s1.Frame && lo < s2.Frame {
			if w := tg.Opt.StackSuppressWindow; w == 0 ||
				(s1.Frame-lo <= w && s2.Frame-lo <= w) {
				st.SuppressedStack++
				return true
			}
		}
		// Stack-lifetime suppression (this reproduction's extension):
		// if the thread's stack popped above the address between the
		// two segments, the later segment addresses a different object.
		if tg.Opt.StackLifetimeSuppression && tg.objectDiedBetween(s1, s2, lo) {
			st.SuppressedStack++
			return true
		}
	}
	return false
}

// spIndex answers "max event-SP among a thread's segments in a node-id
// range" via a sparse table.
type spIndex struct {
	nodes []seggraph.NodeID
	table [][]uint64 // table[k][i] = max sp over nodes[i : i+2^k]
}

func newSPIndex(nodes []seggraph.NodeID, sps []uint64) *spIndex {
	n := len(nodes)
	idx := &spIndex{nodes: nodes}
	idx.table = append(idx.table, append([]uint64(nil), sps...))
	for k := 1; 1<<k <= n; k++ {
		prev := idx.table[k-1]
		row := make([]uint64, n-(1<<k)+1)
		for i := range row {
			a, b := prev[i], prev[i+(1<<(k-1))]
			if b > a {
				a = b
			}
			row[i] = a
		}
		idx.table = append(idx.table, row)
	}
	return idx
}

// maxBetween returns the max event SP among segments with node id in
// (after, upto].
func (idx *spIndex) maxBetween(after, upto seggraph.NodeID) uint64 {
	lo := sort.Search(len(idx.nodes), func(i int) bool { return idx.nodes[i] > after })
	hi := sort.Search(len(idx.nodes), func(i int) bool { return idx.nodes[i] > upto })
	if lo >= hi {
		return 0
	}
	k := bits.Len(uint(hi-lo)) - 1
	a, b := idx.table[k][lo], idx.table[k][hi-(1<<k)]
	if b > a {
		a = b
	}
	return a
}

// buildLifetimeIndex prepares the per-thread event-SP tables and stack
// bounds.
func (tg *Taskgrind) buildLifetimeIndex(c *dbi.Core) {
	if !tg.Opt.StackLifetimeSuppression {
		return
	}
	tg.lifetimes = make(map[int]*spIndex)
	tg.stackOf = make(map[int][2]uint64)
	for _, t := range c.M.Threads() {
		tg.stackOf[t.ID] = [2]uint64{t.StackLo, t.StackHi}
	}
	perThread := map[int][]*Segment{}
	for _, s := range tg.segs {
		perThread[s.Thread] = append(perThread[s.Thread], s)
	}
	for tid, segs := range perThread {
		nodes := make([]seggraph.NodeID, len(segs))
		sps := make([]uint64, len(segs))
		for i, s := range segs {
			nodes[i] = s.Node
			sps[i] = s.EventSP
		}
		tg.lifetimes[tid] = newSPIndex(nodes, sps)
	}
}

// objectDiedBetween reports that the stack address lo was popped by its
// owning thread between the earlier and the later segment. Events are
// serialized by the big lock, so segment creation order is a global
// timeline; an owner event with SP above lo means lo was outside the live
// stack at that moment — the two segments touched different objects.
func (tg *Taskgrind) objectDiedBetween(s1, s2 *Segment, lo uint64) bool {
	if tg.lifetimes == nil {
		return false
	}
	owner := -1
	for tid, bounds := range tg.stackOf {
		if lo >= bounds[0] && lo < bounds[1] {
			owner = tid
			break
		}
	}
	if owner < 0 {
		return false
	}
	idx := tg.lifetimes[owner]
	if idx == nil {
		return false
	}
	first, second := s1, s2
	if first.Node > second.Node {
		first, second = second, first
	}
	return idx.maxBetween(first.Node, second.Node) > lo
}

// classify maps an address to its memory region.
func classify(addr uint64) report.MemRegion {
	switch {
	case addr < guest.HeapBase:
		return report.RegionGlobal
	case addr < guest.HeapLimit:
		return report.RegionHeap
	case addr < guest.FastPoolLimit:
		return report.RegionPool
	case addr >= guest.TLSBase && addr < guest.TLSLimit:
		return report.RegionTLS
	default:
		return report.RegionStack
	}
}

// nodeFilter is a helper for tests: segments with accesses.
func (tg *Taskgrind) nodeFilter(id seggraph.NodeID) bool {
	s := tg.segs[id]
	return !s.Reads.Empty() || !s.Writes.Empty()
}
