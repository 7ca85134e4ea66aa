package core

import (
	"repro/internal/guest"
	"repro/internal/itree"
)

// combineSlots is the number of pending runs a combiner holds: enough for
// the handful of arrays a LULESH kernel streams through at once.
const combineSlots = 8

// hintSlots is the number of instructions whose slot a combiner remembers,
// indexed by PC: the instructions of a loop body up to this long never
// share an entry.
const hintSlots = 32

// combiner write-combines one thread's accesses of one kind before they
// reach the current segment's interval tree (paper §III-B, Fig. 3). An
// access that overlaps or abuts a pending run extends it in place, which
// costs a few compares instead of a treap split and merge; any other access
// takes a free slot, or evicts one round-robin into the tree.
//
// An instruction in a loop touches the same run iteration after iteration,
// so add first tries the slot the same instruction's previous access went
// to, and scans only when that fails.
//
// Combining never changes a tree. Insert merges overlapping and adjacent
// intervals, so a tree holds the maximal intervals of the union of what was
// inserted, in whatever order and grouping; flushing a run inserts exactly
// the union of the accesses it absorbed, whichever of two overlapping runs
// absorbed each. A treap's shape depends only on its key set, because each
// node's priority is a bijection of its Lo, so every flushed tree is
// node-for-node the tree direct insertion builds.
type combiner struct {
	runs [combineSlots]itree.Interval
	n    int // runs in use
	next int // round-robin eviction cursor
	// hint is the slot each instruction's previous access went to, at
	// pc / InstrBytes mod hintSlots. It may name a slot at or past n.
	hint [hintSlots]uint8
}

// add records the access [lo, hi) by the instruction at pc, bound for t.
func (c *combiner) add(t *itree.Tree, pc, lo, hi uint64) {
	if !c.extendHinted(pc, lo, hi) {
		c.place(t, pc, lo, hi)
	}
}

// extendHinted extends the run the instruction at pc last went to, if
// [lo, hi) overlaps or abuts it. It is add's fast path, small enough to
// inline into a batch loop. An access that wraps past 2^64 (hi < lo)
// overlaps no run, so it falls through to place, which drops it.
func (c *combiner) extendHinted(pc, lo, hi uint64) bool {
	i := int(c.hint[pc/guest.InstrBytes%hintSlots])
	if i >= c.n { // a slot past n holds no run
		return false
	}
	r := &c.runs[i]
	if lo > r.Hi || hi < r.Lo {
		return false
	}
	r.Lo, r.Hi = min(r.Lo, lo), max(r.Hi, hi)
	return true
}

// place records [lo, hi) when extendHinted could not: it extends the first
// run [lo, hi) overlaps or abuts, else takes a free slot or evicts one, and
// remembers the slot for the instruction at pc.
func (c *combiner) place(t *itree.Tree, pc, lo, hi uint64) {
	if lo >= hi {
		return
	}
	h := &c.hint[pc/guest.InstrBytes%hintSlots]
	for i := range c.runs[:c.n] {
		r := &c.runs[i]
		if lo <= r.Hi && hi >= r.Lo {
			r.Lo = min(r.Lo, lo)
			r.Hi = max(r.Hi, hi)
			*h = uint8(i)
			return
		}
	}
	if c.n < combineSlots {
		c.runs[c.n] = itree.Interval{Lo: lo, Hi: hi}
		*h = uint8(c.n)
		c.n++
		return
	}
	r := &c.runs[c.next]
	t.Insert(r.Lo, r.Hi)
	*r = itree.Interval{Lo: lo, Hi: hi}
	*h = uint8(c.next)
	c.next = (c.next + 1) % combineSlots
}

// flush drains every pending run into t.
func (c *combiner) flush(t *itree.Tree) {
	for _, r := range c.runs[:c.n] {
		t.Insert(r.Lo, r.Hi)
	}
	c.n, c.next = 0, 0
}

// setCur makes s the thread's current segment, first draining the pending
// runs into the segment they were recorded in.
func (ts *threadState) setCur(s *Segment) {
	ts.flush()
	ts.cur = s
}

// flush drains both combining buffers into the current segment's trees.
func (ts *threadState) flush() {
	if ts.cur != nil {
		ts.reads.flush(ts.cur.Reads)
		ts.writes.flush(ts.cur.Writes)
	}
}
