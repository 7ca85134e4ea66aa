// Package seggraph implements the segment graph of the paper (§II-A): nodes
// are non-divisible instruction sequences (segments) and a path from N_i to
// N_j exists iff a synchronization imposes N_i happens-before N_j.
//
// Segments are created in program order, so every edge points from a lower
// ID to a higher ID and the graph is a DAG by construction. Happens-before
// queries use transitive-closure bitsets computed in one reverse pass.
//
// The parallel-region rule (Eq. 1: p1 ≺ p2 implies every segment of p1
// happens before every segment of p2) is realized structurally: each region
// has a fork node that precedes all its segments and a join node that all
// its segments precede, and serial code chains join(p1) → fork(p2).
package seggraph

import "fmt"

// NodeID identifies a segment.
type NodeID int32

// Graph is a DAG over segments with forward-only edges.
type Graph struct {
	succ   [][]NodeID
	pred   [][]NodeID
	reach  []bitset
	closed bool
	edges  int
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.succ) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// AddNode creates a segment and returns its ID.
func (g *Graph) AddNode() NodeID {
	if g.closed {
		panic("seggraph: AddNode after Close")
	}
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return NodeID(len(g.succ) - 1)
}

// AddEdge records u happens-before v. Edges must go forward in creation
// order (u < v); self-edges and duplicate edges are ignored.
func (g *Graph) AddEdge(u, v NodeID) {
	if g.closed {
		panic("seggraph: AddEdge after Close")
	}
	if u == v {
		return
	}
	if u > v {
		panic(fmt.Sprintf("seggraph: backward edge %d -> %d", u, v))
	}
	for _, w := range g.succ[u] {
		if w == v {
			return
		}
	}
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	g.edges++
}

// Succs returns the direct successors of u.
func (g *Graph) Succs(u NodeID) []NodeID { return g.succ[u] }

// Preds returns the direct predecessors of u.
func (g *Graph) Preds(u NodeID) []NodeID { return g.pred[u] }

// Close computes the transitive closure. After Close the graph is immutable.
func (g *Graph) Close() {
	n := len(g.succ)
	g.reach = make([]bitset, n)
	words := (n + 63) / 64
	backing := make([]uint64, n*words)
	for u := n - 1; u >= 0; u-- {
		bs := bitset(backing[u*words : (u+1)*words])
		for _, v := range g.succ[u] {
			bs.set(int(v))
			bs.or(g.reach[v])
		}
		g.reach[u] = bs
	}
	g.closed = true
}

// Closed reports whether Close has run.
func (g *Graph) Closed() bool { return g.closed }

// HappensBefore reports whether there is a path u -> v. The graph must be
// closed.
func (g *Graph) HappensBefore(u, v NodeID) bool {
	if u == v {
		return false
	}
	return g.reach[u].get(int(v))
}

// Ordered reports u ≺ v or v ≺ u.
func (g *Graph) Ordered(u, v NodeID) bool {
	return g.HappensBefore(u, v) || g.HappensBefore(v, u)
}

// Concurrent reports that no path orders u and v — the precondition of a
// determinacy race.
func (g *Graph) Concurrent(u, v NodeID) bool {
	return u != v && !g.Ordered(u, v)
}

// Footprint approximates host memory used by the closure bitsets.
func (g *Graph) Footprint() uint64 {
	n := uint64(len(g.succ))
	words := (n + 63) / 64
	return n*words*8 + uint64(g.edges)*8
}

// bitset is a fixed-size bit vector.
type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}
