package core

import (
	"math/bits"
	"sort"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/itree"
	"repro/internal/report"
	"repro/internal/seggraph"
)

// Fini implements dbi.Tool: the post-mortem determinacy-race analysis —
// Algorithm 1 of the paper. It closes the segment graph, finds the segment
// pairs that share a byte where a report is possible, and on each unordered
// one intersects write sets against read∪write sets, applies the TLS and
// stack-frame suppressions, and renders reports.
func (tg *Taskgrind) Fini(c *dbi.Core) {
	tg.flushThreads()
	tg.graph.Close()
	tg.buildLifetimeIndex(c)

	active := tg.freeze()
	tg.analyze(active, itree.Pairs(tg.pieces(active), len(active)), &tg.Reports, &tg.Stats)
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
// one shared backing array, so every pair intersects plain arrays without
// touching a tree.
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

// pieces tags every frozen interval for the candidate join. With the §IV-D
// frame rule on, the part of a segment's stack accesses that the rule
// covers on its side is cold; everything else — globals, heap, pool, TLS,
// and stack at or above the frame — is hot. A conflicting range that
// starts inside both segments' cold spans is always suppressed, so two
// cold pieces never need a pair.
func (tg *Taskgrind) pieces(active []frozen) []itree.Piece {
	n := 0
	for _, f := range active {
		// A cold span's two ends split at most one read and one write
		// interval each.
		n += len(f.reads) + len(f.writes) + 4
	}
	ps := make([]itree.Piece, 0, n)
	for i, f := range active {
		lo, hi := tg.coldSpan(f.Segment)
		ps = itree.AppendPieces(ps, f.reads, uint32(i), false, lo, hi)
		ps = itree.AppendPieces(ps, f.writes, uint32(i), true, lo, hi)
	}
	return ps
}

// coldSpan returns the stack span [lo, hi) in which suppressed's frame rule
// holds on s's side: [Frame − StackSuppressWindow, Frame), or [TLSLimit,
// Frame) with no window, and never below TLSLimit, where classify stops
// calling an address stack.
func (tg *Taskgrind) coldSpan(s *Segment) (lo, hi uint64) {
	if !tg.Opt.StackSuppression || s.Frame <= guest.TLSLimit {
		return 0, 0
	}
	lo = guest.TLSLimit
	if w := tg.Opt.StackSuppressWindow; w != 0 && w < s.Frame-lo {
		lo = s.Frame - w
	}
	return lo, s.Frame
}

// analyze runs Algorithm 1's pair body on each candidate pair i<<32 | j of
// active segments. Candidates come in ascending order, the order of the
// paper's all-pairs loop, so the reports and which of them keep details
// under MaxReports are that loop's.
func (tg *Taskgrind) analyze(active []frozen, pairs []uint64, out *report.Set, st *Stats) {
	for _, p := range pairs {
		s1, s2 := active[p>>32], active[uint32(p)]
		st.PairsChecked++
		if tg.graph.Ordered(s1.Node, s2.Node) {
			continue
		}
		tg.checkPair(s1, s2, out, st)
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
