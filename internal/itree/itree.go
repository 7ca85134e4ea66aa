// Package itree implements the interval trees Taskgrind attaches to every
// segment to record read and write accesses (paper §III-B, Fig. 3). Dense
// accesses accumulate compactly: inserting an interval merges it with any
// overlapping or adjacent intervals, so a segment sweeping an array ends up
// with a single node no matter how many accesses it made. All operations
// used by the analysis are O(log n) in the number of dense intervals.
//
// The tree is a treap (randomized BST) with deterministic priorities derived
// from the interval start, so identical access sequences build identical
// trees — preserving run-to-run reproducibility.
package itree

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

type node struct {
	iv          Interval
	prio        uint64
	left, right *node
}

// Tree is a set of disjoint, non-adjacent half-open intervals.
type Tree struct {
	root  *node
	count int
}

// New creates an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of stored (merged) intervals.
func (t *Tree) Len() int { return t.count }

// Empty reports whether the tree holds no intervals.
func (t *Tree) Empty() bool { return t.root == nil }

// prio derives a deterministic treap priority from the interval start
// (splitmix64 finalizer).
func prio(lo uint64) uint64 {
	z := lo + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// split partitions by interval start: left holds nodes with iv.Lo < key.
func split(n *node, key uint64) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if n.iv.Lo < key {
		a, b := split(n.right, key)
		n.right = a
		return n, b
	}
	a, b := split(n.left, key)
	n.left = b
	return a, n
}

// merge joins two treaps where every key in l precedes every key in r.
func merge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		return l
	default:
		r.left = merge(l, r.left)
		return r
	}
}

// popMin removes and returns the leftmost node.
func popMin(n *node) (rest, min *node) {
	if n.left == nil {
		return n.right, n
	}
	rest, min = popMin(n.left)
	n.left = rest
	return n, min
}

// Insert adds [lo, hi), merging with overlapping and adjacent intervals.
// Empty intervals are ignored.
func (t *Tree) Insert(lo, hi uint64) {
	if lo >= hi {
		return
	}
	// All intervals with start <= hi might merge; intervals are disjoint
	// and non-adjacent so only the predecessor of lo can overlap from the
	// left.
	left, rest := split(t.root, lo)
	// Check the rightmost interval of left: if it reaches lo, absorb it —
	// and reuse its node when the merged start is unchanged (the common
	// dense-sweep case, keeping one allocation per *range*, not per
	// access).
	var reuse *node
	if left != nil {
		rm := left
		for rm.right != nil {
			rm = rm.right
		}
		if rm.iv.Hi >= lo {
			var pred *node
			left, pred = splitOffMax(left)
			if pred.iv.Lo < lo {
				lo = pred.iv.Lo
			}
			if pred.iv.Hi > hi {
				hi = pred.iv.Hi
			}
			reuse = pred
			t.count--
		}
	}
	// Absorb everything in rest starting at or before hi.
	mid, right := split(rest, hi+1)
	for mid != nil {
		var mn *node
		mid, mn = popMin(mid)
		if mn.iv.Hi > hi {
			hi = mn.iv.Hi
		}
		if reuse == nil && mn.iv.Lo == lo {
			reuse = mn
		}
		t.count--
	}
	n := reuse
	if n == nil || n.iv.Lo != lo {
		n = &node{iv: Interval{lo, hi}, prio: prio(lo)}
	} else {
		n.iv = Interval{lo, hi}
		n.left, n.right = nil, nil
	}
	t.count++
	t.root = merge(merge(left, n), right)
}

// splitOffMax removes the maximum node.
func splitOffMax(n *node) (rest, max *node) {
	if n.right == nil {
		return n.left, n
	}
	rest, max = splitOffMax(n.right)
	n.right = rest
	return n, max
}

// InsertPoint records an access of width bytes at addr.
func (t *Tree) InsertPoint(addr uint64, width uint8) {
	t.Insert(addr, addr+uint64(width))
}

// Contains reports whether addr is covered.
func (t *Tree) Contains(addr uint64) bool {
	n := t.root
	for n != nil {
		if addr >= n.iv.Lo && addr < n.iv.Hi {
			return true
		}
		if addr < n.iv.Lo {
			n = n.left
		} else {
			n = n.right
		}
	}
	return false
}

// Visit calls fn on every interval in ascending order; fn returning false
// stops the walk.
func (t *Tree) Visit(fn func(Interval) bool) { visit(t.root, fn) }

func visit(n *node, fn func(Interval) bool) bool {
	if n == nil {
		return true
	}
	return visit(n.left, fn) && fn(n.iv) && visit(n.right, fn)
}

// Intervals returns all intervals in ascending order.
func (t *Tree) Intervals() []Interval {
	return t.AppendIntervals(make([]Interval, 0, t.count))
}

// AppendIntervals appends all intervals in ascending order to dst.
func (t *Tree) AppendIntervals(dst []Interval) []Interval { return appendNodes(t.root, dst) }

func appendNodes(n *node, dst []Interval) []Interval {
	for ; n != nil; n = n.right {
		dst = append(appendNodes(n.left, dst), n.iv)
	}
	return dst
}

// Bytes returns the total number of covered bytes.
func (t *Tree) Bytes() uint64 {
	var n uint64
	t.Visit(func(iv Interval) bool { n += iv.Hi - iv.Lo; return true })
	return n
}

// Intersect calls fn with every maximal byte range covered by both a and b,
// in ascending order. a and b must be sorted, disjoint and non-adjacent, as
// Intervals returns them. This is the s1.w ∩ (s2.r ∪ s2.w) primitive of the
// determinacy-race analysis: a two-pointer merge that gallops over runs of
// one list lying wholly inside a gap of the other, so a short list against a
// long one costs O(short · log long) rather than O(long).
func Intersect(a, b []Interval, fn func(lo, hi uint64)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x.Hi <= y.Lo:
			i = seek(a, i+1, y.Lo)
		case y.Hi <= x.Lo:
			j = seek(b, j+1, x.Lo)
		default:
			fn(max(x.Lo, y.Lo), min(x.Hi, y.Hi))
			if x.Hi <= y.Hi {
				i++
			}
			if y.Hi <= x.Hi {
				j++
			}
		}
	}
}

// seek returns the first index k >= i with s[k].Hi > lo, or len(s). It
// gallops from i, so a skip of d intervals costs O(log d).
func seek(s []Interval, i int, lo uint64) int {
	if i >= len(s) || s[i].Hi > lo {
		return i
	}
	// Invariant: s[prev].Hi <= lo; the answer lies in (prev, end].
	prev, end := i, len(s)
	for step := 1; ; step *= 2 {
		next := prev + step
		if next >= len(s) {
			break
		}
		if s[next].Hi > lo {
			end = next
			break
		}
		prev = next
	}
	k := prev + 1
	for k < end {
		m := int(uint(k+end) >> 1)
		if s[m].Hi > lo {
			end = m
		} else {
			k = m + 1
		}
	}
	return k
}

// NodeFootprintBytes approximates per-node host memory, used for the tool
// memory-overhead metric.
const NodeFootprintBytes = 56

// Footprint approximates the host memory held by the tree.
func (t *Tree) Footprint() uint64 { return uint64(t.count) * NodeFootprintBytes }
