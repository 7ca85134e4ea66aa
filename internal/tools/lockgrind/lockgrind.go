// Package lockgrind is a helgrind-style lock-aware tool on the DBI
// framework: per-thread execution segments on the seggraph substrate,
// lockset intersection for data races, and lock-order (cycle) detection for
// potential deadlocks.
//
// Its character is deliberately different from Taskgrind's determinacy
// analysis: it models the *observed* schedule the way helgrind models
// pthread programs. Each OS thread is a program-ordered chain of segments;
// cross-thread edges come only from synchronization the runtime actually
// performed (fork/join, task handoff, barriers, condvar signal→wait).
// Mutual exclusion adds no ordering — instead every segment carries the
// lockset held while it ran, and two concurrent segments conflict only when
// their locksets are disjoint (the helgrind/Eraser discipline). Acquiring a
// lock while holding another records a lock-order edge; a cycle in that
// order graph is a potential deadlock even if this schedule never hung.
//
// Like the other translating tools it receives accesses through the batched
// flush_accesses dirty-call path, so it runs under both engines with
// bit-identical reports.
package lockgrind

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/itree"
	"repro/internal/ompt"
	"repro/internal/seggraph"
	"repro/internal/vex"
	"repro/internal/vm"
)

// seg is one per-thread execution segment with a constant lockset: segments
// split at every acquire/release, so all accesses in a segment ran under the
// same set of locks.
type seg struct {
	node    seggraph.NodeID
	thread  int
	label   string
	lockset []uint64 // sorted lock keys held throughout the segment
	reads   *itree.Tree
	writes  *itree.Tree
}

// tstate is the per-guest-thread tool state (vm.Thread.Tool).
type tstate struct {
	cur   *seg
	stack []*seg
	// held is the acquisition-ordered set of lock keys.
	held []uint64
}

type regionInfo struct {
	forkSeg  *seg
	lasts    []*seg
	arrivals map[uint64][]*seg
}

type taskInfo struct {
	createSeg *seg
	lastSeg   *seg
	children  []uint64
}

// Race is one lockset-discipline violation.
type Race struct {
	SegA, SegB       string
	ThreadA, ThreadB int
	LocksA, LocksB   string
	Kind             string
	Ranges           []itree.Interval
}

// OrderViolation is one cycle in the lock-order graph.
type OrderViolation struct {
	// Cycle lists the lock names in acquisition-order cycle, e.g.
	// ["M1", "M2"]: M1 was held while taking M2 and vice versa.
	Cycle []string
}

// Lockgrind is the tool plugin.
type Lockgrind struct {
	dbi.NopTool
	c *dbi.Core

	graph   *seggraph.Graph
	segs    []*seg
	regions map[uint64]*regionInfo
	tasks   map[uint64]*taskInfo
	// relSeg holds condvar release segments keyed by condvar address.
	relSeg map[uint64]*seg
	// prev chains same-thread segments in program order.
	prev map[int]*seg

	// lockNames assigns stable display names in first-use order.
	lockNames map[uint64]string
	mutexSeq  int
	// order is the lock-order graph: order[h][l] means l was acquired
	// while h was held; the value is the witnessing thread.
	order map[uint64]map[uint64]int

	Races      []*Race
	Violations []*OrderViolation
}

// New creates a Lockgrind instance.
func New() *Lockgrind {
	return &Lockgrind{
		graph:     seggraph.New(),
		regions:   make(map[uint64]*regionInfo),
		tasks:     make(map[uint64]*taskInfo),
		relSeg:    make(map[uint64]*seg),
		prev:      make(map[int]*seg),
		lockNames: make(map[uint64]string),
		order:     make(map[uint64]map[uint64]int),
	}
}

// Name implements dbi.Tool.
func (lg *Lockgrind) Name() string { return "lockgrind" }

// Attach keeps the core for symbolization.
func (lg *Lockgrind) Attach(c *dbi.Core) { lg.c = c }

// Count returns the number of findings (races + order violations).
func (lg *Lockgrind) Count() int { return len(lg.Races) + len(lg.Violations) }

// newSeg creates a segment for t, chained after the thread's previous
// segment (program order) and carrying the thread's current lockset.
func (lg *Lockgrind) newSeg(t *vm.Thread, ts *tstate, label string) *seg {
	s := &seg{
		node:   lg.graph.AddNode(),
		thread: t.ID,
		label:  label,
		reads:  itree.New(),
		writes: itree.New(),
	}
	if len(ts.held) > 0 {
		s.lockset = append([]uint64(nil), ts.held...)
		sort.Slice(s.lockset, func(i, j int) bool { return s.lockset[i] < s.lockset[j] })
	}
	if p := lg.prev[t.ID]; p != nil {
		lg.graph.AddEdge(p.node, s.node)
	}
	lg.prev[t.ID] = s
	lg.segs = append(lg.segs, s)
	return s
}

// split continues the current segment under the (possibly changed) lockset.
func (lg *Lockgrind) split(t *vm.Thread, ts *tstate) {
	if ts.cur == nil {
		return
	}
	ts.cur = lg.newSeg(t, ts, ts.cur.label)
}

// lockName assigns/returns the display name of a lock key.
func (lg *Lockgrind) lockName(key uint64) string {
	if n, ok := lg.lockNames[key]; ok {
		return n
	}
	var n string
	if key < guest.FastPoolBase {
		// Critical sections are keyed by their small lock id.
		n = fmt.Sprintf("critical(%d)", key)
	} else {
		lg.mutexSeq++
		n = fmt.Sprintf("M%d", lg.mutexSeq)
	}
	lg.lockNames[key] = n
	return n
}

// acquire records taking a lock: lock-order edges from every held lock, then
// a segment split so subsequent accesses carry the grown lockset.
func (lg *Lockgrind) acquire(t *vm.Thread, ts *tstate, key uint64) {
	lg.lockName(key)
	for _, h := range ts.held {
		if h == key {
			return // recursive acquire
		}
	}
	for _, h := range ts.held {
		m := lg.order[h]
		if m == nil {
			m = make(map[uint64]int)
			lg.order[h] = m
		}
		if _, ok := m[key]; !ok {
			m[key] = t.ID
		}
	}
	ts.held = append(ts.held, key)
	lg.split(t, ts)
}

// release records dropping a lock.
func (lg *Lockgrind) release(t *vm.Thread, ts *tstate, key uint64) {
	for i, h := range ts.held {
		if h == key {
			ts.held = append(ts.held[:i:i], ts.held[i+1:]...)
			break
		}
	}
	lg.split(t, ts)
}

// state returns (creating) the per-thread tool state.
func (lg *Lockgrind) state(t *vm.Thread) *tstate {
	if ts, ok := t.Tool.(*tstate); ok {
		return ts
	}
	ts := &tstate{}
	t.Tool = ts
	return ts
}

// ThreadStart implements dbi.Tool.
func (lg *Lockgrind) ThreadStart(t *vm.Thread) {
	ts := &tstate{}
	t.Tool = ts
	if t.ID == 0 {
		ts.cur = lg.newSeg(t, ts, "main")
	}
}

// ClientRequest implements dbi.Tool: it consumes the OMPT stream, keeping
// only the synchronization helgrind would see — thread lifecycle, fork/join,
// task handoff, barriers, condvars — plus the lock events that drive the
// lockset machinery. Task dependences are deliberately ignored: lockgrind
// has no OpenMP semantic knowledge, which is exactly what makes it a
// different point in the verdict matrix.
func (lg *Lockgrind) ClientRequest(t *vm.Thread, code int32, args [6]uint64) uint64 {
	ts := lg.state(t)
	switch code {
	case ompt.CRParallelBegin:
		lg.regions[args[0]] = &regionInfo{
			forkSeg:  ts.cur,
			arrivals: make(map[uint64][]*seg),
		}

	case ompt.CRImplicitBegin:
		ri := lg.regions[args[0]]
		s := lg.newSeg(t, ts, "parallel#"+utoa(args[0]))
		if ri != nil && ri.forkSeg != nil {
			lg.graph.AddEdge(ri.forkSeg.node, s.node)
		}
		ts.stack = append(ts.stack, ts.cur)
		ts.cur = s

	case ompt.CRImplicitEnd:
		if ri := lg.regions[args[0]]; ri != nil {
			ri.lasts = append(ri.lasts, ts.cur)
		}
		ts.cur = ts.stack[len(ts.stack)-1]
		ts.stack = ts.stack[:len(ts.stack)-1]

	case ompt.CRParallelEnd:
		ri := lg.regions[args[0]]
		s := lg.newSeg(t, ts, "join#"+utoa(args[0]))
		if ri != nil {
			for _, last := range ri.lasts {
				if last != nil {
					lg.graph.AddEdge(last.node, s.node)
				}
			}
		}
		ts.cur = s

	case ompt.CRTaskCreate:
		lg.tasks[args[0]] = &taskInfo{createSeg: ts.cur}
		if p := lg.tasks[args[1]]; p != nil {
			p.children = append(p.children, args[0])
		} else {
			lg.tasks[args[1]] = &taskInfo{children: []uint64{args[0]}}
		}
		lg.split(t, ts)

	case ompt.CRTaskBegin:
		ti := lg.tasks[args[0]]
		s := lg.newSeg(t, ts, lg.locate(tArg(args, 0)))
		s.label = "task#" + utoa(args[0])
		if ti != nil && ti.createSeg != nil {
			// The deque handoff is real synchronization: the stealing
			// thread provably runs the task after its creation.
			lg.graph.AddEdge(ti.createSeg.node, s.node)
		}
		ts.stack = append(ts.stack, ts.cur)
		ts.cur = s

	case ompt.CRTaskEnd:
		if ti := lg.tasks[args[0]]; ti != nil {
			ti.lastSeg = ts.cur
		}
		ts.cur = ts.stack[len(ts.stack)-1]
		ts.stack = ts.stack[:len(ts.stack)-1]

	case ompt.CRTaskWaitEnd:
		// The waiting thread really blocked until its children finished.
		wti := lg.tasks[args[0]]
		lg.split(t, ts)
		if wti != nil && ts.cur != nil {
			for _, cid := range wti.children {
				if c := lg.tasks[cid]; c != nil && c.lastSeg != nil {
					lg.graph.AddEdge(c.lastSeg.node, ts.cur.node)
				}
			}
		}

	case ompt.CRBarrierBegin:
		ri := lg.regions[args[0]]
		if ri != nil && ts.cur != nil {
			ri.arrivals[args[1]] = append(ri.arrivals[args[1]], ts.cur)
		}

	case ompt.CRBarrierEnd:
		ri := lg.regions[args[0]]
		if ri == nil || ts.cur == nil {
			return 0
		}
		gen := args[1] - 1
		lg.split(t, ts)
		for _, a := range ri.arrivals[gen] {
			lg.graph.AddEdge(a.node, ts.cur.node)
		}

	case ompt.CRCriticalAcquire, ompt.CRMutexAcquire:
		lg.acquire(t, ts, args[0])

	case ompt.CRCriticalRelease, ompt.CRMutexRelease:
		lg.release(t, ts, args[0])

	case ompt.CRCondSignal, ompt.CRCondBroadcast, ompt.CRRelease:
		if ts.cur != nil {
			lg.relSeg[args[0]] = ts.cur
			lg.split(t, ts)
		}

	case ompt.CRCondWait, ompt.CRAcquire:
		lg.split(t, ts)
		if rel := lg.relSeg[args[0]]; rel != nil && ts.cur != nil {
			lg.graph.AddEdge(rel.node, ts.cur.node)
		}
	}
	return 1
}

func tArg(args [6]uint64, i int) uint64 { return args[i] }

// locate resolves a guest address to file:line.
func (lg *Lockgrind) locate(addr uint64) string {
	if lg.c == nil {
		return "?"
	}
	im := lg.c.M.Image
	if file, line := im.LineFor(addr); file != "" {
		return fmt.Sprintf("%s:%d", file, line)
	}
	if sym := im.SymbolFor(addr); sym != nil {
		return sym.Name
	}
	return fmt.Sprintf("0x%x", addr)
}

// Instrument implements dbi.Tool: user code is routed through the batched
// access-delivery path; __kmp runtime internals are skipped wholesale, the
// way helgrind ships suppressions for the runtime it runs under.
func (lg *Lockgrind) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	if sym := c.M.Image.SymbolFor(sb.GuestAddr); sym != nil &&
		strings.HasPrefix(sym.Name, "__kmp") {
		return sb
	}
	out, _, _ := c.InstrumentAccesses(sb, lg)
	return out
}

// FlushAccesses implements dbi.AccessSink.
func (lg *Lockgrind) FlushAccesses(t *vm.Thread, b dbi.Batch) {
	ts, _ := t.Tool.(*tstate)
	if ts == nil || ts.cur == nil {
		return
	}
	for i := range b.Len() {
		addr := b.Addr(i)
		// Runtime-pool internals (descriptors, lock words) are the
		// runtime's business, not the program's.
		if addr >= guest.FastPoolBase && addr < guest.FastPoolLimit {
			continue
		}
		if b.Store(i) {
			ts.cur.writes.InsertPoint(addr, b.Wd(i))
		} else {
			ts.cur.reads.InsertPoint(addr, b.Wd(i))
		}
	}
}

// locksetsIntersect reports whether two sorted locksets share a key.
func locksetsIntersect(a, b []uint64) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Fini implements dbi.Tool: close the graph, run the lockset-intersection
// race check over the unordered segment pairs that share a byte with at
// least one write, then detect cycles in the lock-order graph.
func (lg *Lockgrind) Fini(c *dbi.Core) {
	lg.graph.Close()
	active := lg.freeze()
	var ps []itree.Piece
	for i, f := range active {
		ps = itree.AppendPieces(ps, f.r, uint32(i), false, 0, 0)
		ps = itree.AppendPieces(ps, f.w, uint32(i), true, 0, 0)
	}
	lg.check(active, itree.Pairs(ps, len(active)))
	lg.sortRaces()
	lg.findCycles()
}

// frozen is a segment with its access trees flattened for Fini.
type frozen struct {
	*seg
	r, w []itree.Interval
}

// freeze returns the segments with accesses, the only ones that take part,
// their trees flattened into sorted slices once rather than walked per
// pair.
func (lg *Lockgrind) freeze() []frozen {
	active := make([]frozen, 0, len(lg.segs))
	for _, s := range lg.segs {
		if !s.reads.Empty() || !s.writes.Empty() {
			active = append(active, frozen{s, s.reads.Intervals(), s.writes.Intervals()})
		}
	}
	return active
}

// check runs the race check on each candidate pair i<<32 | j of active
// segments, in ascending order.
func (lg *Lockgrind) check(active []frozen, pairs []uint64) {
	for _, p := range pairs {
		s1, s2 := active[p>>32], active[uint32(p)]
		if s1.thread == s2.thread {
			continue // one thread is program-ordered by construction
		}
		if lg.graph.Ordered(s1.node, s2.node) {
			continue
		}
		if locksetsIntersect(s1.lockset, s2.lockset) {
			continue // a common lock protects the overlap
		}
		lg.checkPair(s1, s2)
	}
}

// checkPair intersects the two segments' access sets (at least one write).
func (lg *Lockgrind) checkPair(s1, s2 frozen) {
	conf := itree.New()
	kinds := ""
	collect := func(a, b []itree.Interval, kind string) {
		found := false
		itree.Intersect(a, b, func(lo, hi uint64) {
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
	collect(s1.w, s2.w, "w/w")
	collect(s1.w, s2.r, "w/r")
	collect(s2.w, s1.r, "r/w")
	if conf.Empty() {
		return
	}
	r := &Race{
		SegA: s1.label, SegB: s2.label,
		ThreadA: s1.thread, ThreadB: s2.thread,
		LocksA: lg.locksetString(s1.lockset),
		LocksB: lg.locksetString(s2.lockset),
		Kind:   kinds,
		Ranges: conf.Intervals(),
	}
	lg.Races = append(lg.Races, r)
}

func (lg *Lockgrind) locksetString(set []uint64) string {
	if len(set) == 0 {
		return "{}"
	}
	names := make([]string, len(set))
	for i, k := range set {
		names[i] = lg.lockName(k)
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

func (lg *Lockgrind) sortRaces() {
	sort.Slice(lg.Races, func(i, j int) bool {
		a, b := lg.Races[i], lg.Races[j]
		if a.SegA != b.SegA {
			return a.SegA < b.SegA
		}
		if a.SegB != b.SegB {
			return a.SegB < b.SegB
		}
		if a.ThreadA != b.ThreadA {
			return a.ThreadA < b.ThreadA
		}
		if len(a.Ranges) > 0 && len(b.Ranges) > 0 && a.Ranges[0].Lo != b.Ranges[0].Lo {
			return a.Ranges[0].Lo < b.Ranges[0].Lo
		}
		return a.ThreadB < b.ThreadB
	})
}

// findCycles detects cycles in the lock-order graph with an iterative DFS
// over sorted keys (deterministic). Each cycle is reported once, rotated so
// the smallest lock name leads.
func (lg *Lockgrind) findCycles() {
	keys := make([]uint64, 0, len(lg.order))
	for k := range lg.order {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[uint64]int)
	var path []uint64
	seen := make(map[string]bool)

	var dfs func(u uint64)
	dfs = func(u uint64) {
		color[u] = grey
		path = append(path, u)
		next := make([]uint64, 0, len(lg.order[u]))
		for v := range lg.order[u] {
			next = append(next, v)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, v := range next {
			switch color[v] {
			case white:
				dfs(v)
			case grey:
				// Found a cycle: path from v to u, closing back to v.
				start := 0
				for i, p := range path {
					if p == v {
						start = i
						break
					}
				}
				cycle := append([]uint64(nil), path[start:]...)
				lg.reportCycle(cycle, seen)
			}
		}
		path = path[:len(path)-1]
		color[u] = black
	}
	for _, k := range keys {
		if color[k] == white {
			dfs(k)
		}
	}
	sort.Slice(lg.Violations, func(i, j int) bool {
		return strings.Join(lg.Violations[i].Cycle, ",") < strings.Join(lg.Violations[j].Cycle, ",")
	})
}

// reportCycle canonicalizes (rotate so the lexicographically smallest name
// leads) and dedups a cycle.
func (lg *Lockgrind) reportCycle(cycle []uint64, seen map[string]bool) {
	names := make([]string, len(cycle))
	for i, k := range cycle {
		names[i] = lg.lockName(k)
	}
	min := 0
	for i := range names {
		if names[i] < names[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), names[min:]...), names[:min]...)
	key := strings.Join(rot, ",")
	if seen[key] {
		return
	}
	seen[key] = true
	lg.Violations = append(lg.Violations, &OrderViolation{Cycle: rot})
}

// String renders findings helgrind-style.
func (lg *Lockgrind) String() string {
	var b strings.Builder
	n := 0
	for _, r := range lg.Races {
		n++
		fmt.Fprintf(&b, "==%d== Possible data race (%s): thread %d %s holding %s vs thread %d %s holding %s\n",
			n, r.Kind, r.ThreadA, r.SegA, r.LocksA, r.ThreadB, r.SegB, r.LocksB)
		for _, iv := range r.Ranges {
			fmt.Fprintf(&b, "  %d bytes from 0x%X\n", iv.Hi-iv.Lo, iv.Lo)
		}
	}
	for _, v := range lg.Violations {
		n++
		fmt.Fprintf(&b, "==%d== Lock order violated: cycle %s -> %s\n",
			n, strings.Join(v.Cycle, " -> "), v.Cycle[0])
	}
	fmt.Fprintf(&b, "== %d finding(s)\n", n)
	return b.String()
}

func utoa(v uint64) string { return fmt.Sprintf("%d", v) }
