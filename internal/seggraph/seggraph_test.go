package seggraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the minimal fork/join shape of paper Fig. 1:
//
//	s0 -> {s1, s2} -> s3
func diamond() (*Graph, []NodeID) {
	g := New()
	s0, s1, s2, s3 := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(s0, s1)
	g.AddEdge(s0, s2)
	g.AddEdge(s1, s3)
	g.AddEdge(s2, s3)
	g.Close()
	return g, []NodeID{s0, s1, s2, s3}
}

func TestDiamondHappensBefore(t *testing.T) {
	g, s := diamond()
	if !g.HappensBefore(s[0], s[3]) {
		t.Error("transitivity s0 -> s3")
	}
	if !g.HappensBefore(s[0], s[1]) || !g.HappensBefore(s[2], s[3]) {
		t.Error("direct edges")
	}
	if g.HappensBefore(s[3], s[0]) {
		t.Error("reversed")
	}
	if g.HappensBefore(s[1], s[1]) {
		t.Error("irreflexive")
	}
	if !g.Concurrent(s[1], s[2]) {
		t.Error("branches must be concurrent")
	}
	if g.Concurrent(s[0], s[3]) {
		t.Error("ordered pair reported concurrent")
	}
}

func TestParallelRegionRule(t *testing.T) {
	// Two parallel regions chained serially: fork1 -> {a,b} -> join1 ->
	// serial -> fork2 -> {c,d} -> join2. Eq. 1 demands every segment of
	// region 1 happens before every segment of region 2.
	g := New()
	fork1 := g.AddNode()
	a, b := g.AddNode(), g.AddNode()
	join1 := g.AddNode()
	serial := g.AddNode()
	fork2 := g.AddNode()
	c, d := g.AddNode(), g.AddNode()
	join2 := g.AddNode()
	g.AddEdge(fork1, a)
	g.AddEdge(fork1, b)
	g.AddEdge(a, join1)
	g.AddEdge(b, join1)
	g.AddEdge(join1, serial)
	g.AddEdge(serial, fork2)
	g.AddEdge(fork2, c)
	g.AddEdge(fork2, d)
	g.AddEdge(c, join2)
	g.AddEdge(d, join2)
	g.Close()
	for _, p1 := range []NodeID{a, b} {
		for _, p2 := range []NodeID{c, d} {
			if !g.HappensBefore(p1, p2) {
				t.Errorf("Eq.1 violated: %d not before %d", p1, p2)
			}
		}
	}
	if !g.Concurrent(a, b) || !g.Concurrent(c, d) {
		t.Error("intra-region concurrency lost")
	}
}

func TestBackwardEdgePanics(t *testing.T) {
	g := New()
	u, v := g.AddNode(), g.AddNode()
	defer func() {
		if recover() == nil {
			t.Fatal("backward edge accepted")
		}
	}()
	g.AddEdge(v, u)
}

func TestDuplicateAndSelfEdges(t *testing.T) {
	g := New()
	u, v := g.AddNode(), g.AddNode()
	g.AddEdge(u, v)
	g.AddEdge(u, v)
	g.AddEdge(u, u)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

// reference closure via repeated relaxation (Floyd-Warshall style).
func referenceReach(n int, edges [][2]NodeID) [][]bool {
	r := make([][]bool, n)
	for i := range r {
		r[i] = make([]bool, n)
	}
	for _, e := range edges {
		r[e[0]][e[1]] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if r[i][k] {
				for j := 0; j < n; j++ {
					if r[k][j] {
						r[i][j] = true
					}
				}
			}
		}
	}
	return r
}

// Property: bitset closure matches the reference on random forward DAGs.
func TestQuickClosureMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode()
		}
		var edges [][2]NodeID
		for e := 0; e < n*2; e++ {
			u := NodeID(rng.Intn(n - 1))
			v := u + 1 + NodeID(rng.Intn(n-int(u)-1))
			g.AddEdge(u, v)
			edges = append(edges, [2]NodeID{u, v})
		}
		g.Close()
		ref := referenceReach(n, edges)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if g.HappensBefore(NodeID(i), NodeID(j)) != ref[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Concurrent is symmetric and irreflexive, and exclusive with
// HappensBefore.
func TestQuickConcurrencyLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode()
		}
		for e := 0; e < n; e++ {
			u := NodeID(rng.Intn(n - 1))
			v := u + 1 + NodeID(rng.Intn(n-int(u)-1))
			g.AddEdge(u, v)
		}
		g.Close()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				u, v := NodeID(i), NodeID(j)
				if g.Concurrent(u, v) != g.Concurrent(v, u) {
					return false
				}
				if u == v && g.Concurrent(u, v) {
					return false
				}
				if g.Concurrent(u, v) && g.Ordered(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMutationAfterClosePanics(t *testing.T) {
	g := New()
	g.AddNode()
	g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Close accepted")
		}
	}()
	g.AddNode()
}

func BenchmarkClose1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := New()
		for j := 0; j < 1000; j++ {
			g.AddNode()
		}
		for j := 0; j < 999; j++ {
			g.AddEdge(NodeID(j), NodeID(j+1))
		}
		g.Close()
	}
}
