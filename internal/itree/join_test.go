package itree

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// bruteForcePairs is Pairs by its definition: every pair of pieces, tested
// for overlap, a write and not both cold.
func bruteForcePairs(ps []Piece) []uint64 {
	var out []uint64
	for x, p := range ps {
		for _, q := range ps[x+1:] {
			if p.Set == q.Set || p.Lo >= q.Hi || q.Lo >= p.Hi ||
				!(p.Write || q.Write) || (p.Cold && q.Cold) {
				continue
			}
			i, j := min(p.Set, q.Set), max(p.Set, q.Set)
			out = append(out, uint64(i)<<32|uint64(j))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestPairsMatchesBruteForce runs the join on random pieces, small sets (the
// insertion sort) and large ones (the radix sort, Lo spread over many
// bytes), against the definition.
func TestPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		nsets := 1 + rng.Intn(70)
		n := rng.Intn(200)
		spread := uint64(1) << (8 + rng.Intn(50))
		ps := make([]Piece, n)
		for i := range ps {
			lo := uint64(rng.Int63n(int64(spread)))
			ps[i] = Piece{
				Lo: lo, Hi: lo + 1 + uint64(rng.Intn(int(spread>>4)+1)),
				Set: uint32(rng.Intn(nsets)), Write: rng.Intn(2) == 0, Cold: rng.Intn(3) == 0,
			}
		}
		want := bruteForcePairs(ps)
		got := Pairs(slices.Clone(ps), nsets)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d (%d pieces, %d sets): got %x, want %x", iter, n, nsets, got, want)
		}
	}
}

func TestPairsRules(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b Piece
		pair bool
	}{
		{"write/write", Piece{Lo: 0, Hi: 8, Set: 0, Write: true}, Piece{Lo: 4, Hi: 12, Set: 1, Write: true}, true},
		{"read/write", Piece{Lo: 0, Hi: 8, Set: 0}, Piece{Lo: 7, Hi: 9, Set: 1, Write: true}, true},
		{"read/read", Piece{Lo: 0, Hi: 8, Set: 0}, Piece{Lo: 0, Hi: 8, Set: 1}, false},
		{"adjacent", Piece{Lo: 0, Hi: 8, Set: 0, Write: true}, Piece{Lo: 8, Hi: 9, Set: 1, Write: true}, false},
		{"same set", Piece{Lo: 0, Hi: 8, Set: 1, Write: true}, Piece{Lo: 0, Hi: 8, Set: 1, Write: true}, false},
		{"cold/hot", Piece{Lo: 0, Hi: 8, Set: 0, Write: true, Cold: true}, Piece{Lo: 0, Hi: 8, Set: 1}, true},
		{"cold/cold", Piece{Lo: 0, Hi: 8, Set: 0, Write: true, Cold: true}, Piece{Lo: 0, Hi: 8, Set: 1, Write: true, Cold: true}, false},
	} {
		got := Pairs([]Piece{c.b, c.a}, 2)
		if (len(got) == 1) != c.pair || (c.pair && got[0] != 1) {
			t.Errorf("%s: pairs %x, want pair=%v", c.name, got, c.pair)
		}
	}
}

func TestAppendPiecesSplitsAtColdSpan(t *testing.T) {
	ivs := []Interval{{0, 10}, {20, 40}, {45, 50}, {55, 70}, {80, 90}}
	got := AppendPieces(nil, ivs, 3, true, 30, 60)
	want := []Piece{
		{Lo: 0, Hi: 10}, {Lo: 20, Hi: 30}, {Lo: 30, Hi: 40, Cold: true},
		{Lo: 45, Hi: 50, Cold: true}, {Lo: 55, Hi: 60, Cold: true}, {Lo: 60, Hi: 70}, {Lo: 80, Hi: 90},
	}
	for i := range want {
		want[i].Set, want[i].Write = 3, true
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	// An interval covering the whole span splits in three; an empty span
	// leaves it whole.
	if got := AppendPieces(nil, []Interval{{0, 100}}, 0, false, 30, 60); len(got) != 3 || !got[1].Cold || got[1].Lo != 30 || got[1].Hi != 60 {
		t.Fatalf("covering interval: %+v", got)
	}
	for _, span := range [][2]uint64{{0, 0}, {60, 30}} {
		if got := AppendPieces(nil, []Interval{{0, 100}}, 0, false, span[0], span[1]); len(got) != 1 || got[0].Cold {
			t.Fatalf("empty span %v: %+v", span, got)
		}
	}
}

func TestSortByLo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 64, 65, 1000} {
		ps := make([]Piece, n)
		for i := range ps {
			ps[i] = Piece{Lo: rng.Uint64() >> uint(rng.Intn(64)), Set: uint32(i)}
		}
		got := sortByLo(slices.Clone(ps))
		if !slices.IsSortedFunc(got, func(a, b Piece) int { return cmp.Compare(a.Lo, b.Lo) }) {
			t.Fatalf("n=%d: not sorted", n)
		}
		seen := make([]bool, n)
		for _, p := range got {
			if seen[p.Set] || ps[p.Set] != p {
				t.Fatalf("n=%d: not a permutation", n)
			}
			seen[p.Set] = true
		}
	}
}
