package core

import "repro/internal/itree"

// combineSlots is the number of pending runs a combiner holds: enough for
// the handful of arrays a LULESH kernel streams through at once.
const combineSlots = 8

// combiner write-combines one thread's accesses of one kind before they
// reach the current segment's interval tree (paper §III-B, Fig. 3). An
// access that overlaps or abuts a pending run extends it in place, which
// costs a few compares instead of a treap split and merge; any other access
// takes a free slot, or evicts one round-robin into the tree.
//
// Combining never changes a tree. Insert merges overlapping and adjacent
// intervals, so a tree holds the maximal intervals of the union of what was
// inserted, in whatever order and grouping; flushing a run inserts exactly
// the union of the accesses it absorbed. A treap's shape depends only on its
// key set, because each node's priority is a bijection of its Lo, so every
// flushed tree is node-for-node the tree direct insertion builds.
type combiner struct {
	runs [combineSlots]itree.Interval
	n    int // runs in use
	next int // round-robin eviction cursor
}

// add records the access [lo, hi) bound for t.
func (c *combiner) add(t *itree.Tree, lo, hi uint64) {
	if lo >= hi {
		return
	}
	for i := range c.runs[:c.n] {
		r := &c.runs[i]
		if lo <= r.Hi && hi >= r.Lo {
			r.Lo = min(r.Lo, lo)
			r.Hi = max(r.Hi, hi)
			return
		}
	}
	if c.n < combineSlots {
		c.runs[c.n] = itree.Interval{Lo: lo, Hi: hi}
		c.n++
		return
	}
	r := &c.runs[c.next]
	t.Insert(r.Lo, r.Hi)
	*r = itree.Interval{Lo: lo, Hi: hi}
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
