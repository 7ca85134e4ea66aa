package itree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertMergesOverlapping(t *testing.T) {
	tr := New()
	tr.Insert(10, 20)
	tr.Insert(15, 25)
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	ivs := tr.Intervals()
	if ivs[0] != (Interval{10, 25}) {
		t.Fatalf("merged = %v", ivs[0])
	}
}

func TestInsertMergesAdjacent(t *testing.T) {
	tr := New()
	tr.Insert(10, 20)
	tr.Insert(20, 30) // adjacent right
	tr.Insert(0, 10)  // adjacent left
	if tr.Len() != 1 {
		t.Fatalf("len = %d, ivs = %v", tr.Len(), tr.Intervals())
	}
	if got := tr.Intervals()[0]; got != (Interval{0, 30}) {
		t.Fatalf("merged = %v", got)
	}
}

func TestInsertKeepsDisjoint(t *testing.T) {
	tr := New()
	tr.Insert(0, 4)
	tr.Insert(8, 12)
	tr.Insert(100, 104)
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Bytes() != 12 {
		t.Fatalf("bytes = %d", tr.Bytes())
	}
}

func TestInsertBridgesMany(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i*10, i*10+4)
	}
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	tr.Insert(0, 95) // swallows everything
	if tr.Len() != 1 {
		t.Fatalf("after bridge len = %d: %v", tr.Len(), tr.Intervals())
	}
	if got := tr.Intervals()[0]; got != (Interval{0, 95}) {
		t.Fatalf("bridge = %v", got)
	}
}

func TestEmptyIntervalIgnored(t *testing.T) {
	tr := New()
	tr.Insert(5, 5)
	tr.Insert(7, 3)
	if !tr.Empty() {
		t.Fatal("empty insert stored something")
	}
}

func TestContains(t *testing.T) {
	tr := New()
	tr.Insert(10, 20)
	tr.Insert(30, 40)
	for _, a := range []uint64{10, 15, 19, 30, 39} {
		if !tr.Contains(a) {
			t.Errorf("Contains(%d) = false", a)
		}
	}
	for _, a := range []uint64{9, 20, 25, 40} {
		if tr.Contains(a) {
			t.Errorf("Contains(%d) = true", a)
		}
	}
}

func TestDenseAccumulationStaysCompact(t *testing.T) {
	// A segment sweeping an array byte by byte must end up with ONE node —
	// the compactness claim of paper Fig. 3.
	tr := New()
	for i := uint64(0); i < 100000; i += 8 {
		tr.InsertPoint(0x1000+i, 8)
	}
	if tr.Len() != 1 {
		t.Fatalf("dense sweep produced %d intervals", tr.Len())
	}
}

func TestIntersectRanges(t *testing.T) {
	a := New()
	a.Insert(0, 10)
	a.Insert(20, 30)
	a.Insert(40, 50)
	b := New()
	b.Insert(5, 22)
	b.Insert(48, 60)
	var hits [][2]uint64
	Intersect(a.Intervals(), b.Intervals(), func(lo, hi uint64) {
		hits = append(hits, [2]uint64{lo, hi})
	})
	want := [][2]uint64{{5, 10}, {20, 22}, {48, 50}}
	if len(hits) != len(want) {
		t.Fatalf("intersections = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("intersections = %v, want %v", hits, want)
		}
	}
}

// naiveSet is the reference model: a byte set.
type naiveSet map[uint64]bool

func (s naiveSet) insert(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		s[a] = true
	}
}

// TestQuickTreeMatchesModel checks coverage and interval invariants against
// the naive model for random insert sequences.
func TestQuickTreeMatchesModel(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		model := naiveSet{}
		for i := 0; i < int(n); i++ {
			lo := uint64(rng.Intn(200))
			hi := lo + uint64(rng.Intn(20))
			tr.Insert(lo, hi)
			model.insert(lo, hi)
		}
		// Same coverage.
		for a := uint64(0); a < 230; a++ {
			if tr.Contains(a) != model[a] {
				return false
			}
		}
		// Invariant: intervals sorted, disjoint, non-adjacent, non-empty.
		ivs := tr.Intervals()
		var bytes uint64
		for i, iv := range ivs {
			if iv.Lo >= iv.Hi {
				return false
			}
			if i > 0 && ivs[i-1].Hi >= iv.Lo {
				return false
			}
			bytes += iv.Hi - iv.Lo
		}
		if bytes != uint64(len(model)) {
			return false
		}
		return tr.Len() == len(ivs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntersectionMatchesModel cross-checks Intersect.
func TestQuickIntersectionMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(), New()
		ma, mb := naiveSet{}, naiveSet{}
		for i := 0; i < 30; i++ {
			lo := uint64(rng.Intn(150))
			hi := lo + uint64(rng.Intn(12))
			if i%2 == 0 {
				a.Insert(lo, hi)
				ma.insert(lo, hi)
			} else {
				b.Insert(lo, hi)
				mb.insert(lo, hi)
			}
		}
		return intersectMatchesOracle(a.Intervals(), b.Intervals(), ma, mb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// setOf is the byte-set model of an interval list.
func setOf(ivs []Interval) naiveSet {
	s := naiveSet{}
	for _, iv := range ivs {
		s.insert(iv.Lo, iv.Hi)
	}
	return s
}

// intersectMatchesOracle checks that Intersect(a, b) yields exactly the bytes
// of ma ∩ mb as ascending, non-empty, non-adjacent (so maximal) ranges.
func intersectMatchesOracle(a, b []Interval, ma, mb naiveSet) bool {
	got := naiveSet{}
	var prev *Interval
	ok := true
	Intersect(a, b, func(lo, hi uint64) {
		if lo >= hi || (prev != nil && prev.Hi >= lo) {
			ok = false
		}
		prev = &Interval{lo, hi}
		got.insert(lo, hi)
	})
	want := 0
	for x := range ma {
		if mb[x] {
			want++
			if !got[x] {
				return false
			}
		}
	}
	return ok && len(got) == want
}

// TestIntersectEdgeCases pins Intersect against the byte-set oracle on the
// shapes the galloping merge must get right: empty inputs, a single interval
// against 10k (both ways round), intervals that touch without overlapping,
// and identical lists.
func TestIntersectEdgeCases(t *testing.T) {
	var many []Interval
	for i := uint64(0); i < 10000; i++ {
		many = append(many, Interval{i * 10, i*10 + 5})
	}
	cases := []struct {
		name string
		a, b []Interval
	}{
		{"both empty", nil, nil},
		{"left empty", nil, many},
		{"right empty", many, nil},
		{"one vs many", []Interval{{50003, 50012}}, many},
		{"many vs one", many, []Interval{{50003, 50012}}},
		{"one before many", []Interval{{0, 3}}, many[1:]},
		{"one past many", many, []Interval{{200000, 200008}}},
		{"one spanning many", []Interval{{7, 99997}}, many},
		{"adjacent", []Interval{{0, 4}, {8, 12}, {20, 24}}, []Interval{{4, 8}, {12, 20}, {24, 30}}},
		{"identical", many, many},
	}
	for _, c := range cases {
		if !intersectMatchesOracle(c.a, c.b, setOf(c.a), setOf(c.b)) {
			t.Errorf("%s: Intersect disagrees with the byte-set oracle", c.name)
		}
	}
	var hits []Interval
	Intersect(many[:3], many[:3], func(lo, hi uint64) { hits = append(hits, Interval{lo, hi}) })
	if len(hits) != 3 || hits[0] != many[0] || hits[2] != many[2] {
		t.Errorf("identical lists intersect to %v, want %v", hits, many[:3])
	}
}

// TestIntersectDoesNotAllocate: the Algorithm 1 inner loop runs once per
// unordered segment pair, so the merge itself must not allocate.
func TestIntersectDoesNotAllocate(t *testing.T) {
	a := []Interval{{0, 10}, {20, 30}, {5000, 5100}}
	var b []Interval
	for i := uint64(0); i < 1000; i++ {
		b = append(b, Interval{i * 8, i*8 + 3})
	}
	var n uint64
	if allocs := testing.AllocsPerRun(100, func() {
		Intersect(a, b, func(lo, hi uint64) { n += hi - lo })
	}); allocs != 0 {
		t.Fatalf("Intersect allocates %.1f times per call, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("no intersection found")
	}
}

func TestFootprint(t *testing.T) {
	tr := New()
	tr.Insert(0, 4)
	tr.Insert(10, 14)
	if tr.Footprint() != 2*NodeFootprintBytes {
		t.Fatalf("footprint = %d", tr.Footprint())
	}
}

func BenchmarkInsertDense(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.InsertPoint(uint64(i*8), 8)
	}
}

func BenchmarkInsertSparse(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		tr.InsertPoint(uint64(rng.Intn(1<<26))<<4, 8)
	}
}
