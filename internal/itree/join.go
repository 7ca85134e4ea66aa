package itree

import "math/bits"

// Piece is one interval of one set taking part in a Pairs join.
type Piece struct {
	Lo, Hi uint64
	// Set is the index of the set the interval belongs to.
	Set uint32
	// Write marks a written interval: two pieces pair only when at least
	// one of them writes.
	Write bool
	// Cold marks a piece that pairs only with pieces that are not cold.
	Cold bool
}

// AppendPieces appends ivs to dst as pieces of set, splitting each interval
// at [coldLo, coldHi): the part inside is cold, the rest is not. An empty
// span (coldLo >= coldHi) leaves every piece hot.
func AppendPieces(dst []Piece, ivs []Interval, set uint32, write bool, coldLo, coldHi uint64) []Piece {
	for _, iv := range ivs {
		if coldLo >= coldHi || iv.Hi <= coldLo || iv.Lo >= coldHi {
			dst = appendPiece(dst, iv.Lo, iv.Hi, set, write, false)
			continue
		}
		if iv.Lo < coldLo {
			dst = appendPiece(dst, iv.Lo, coldLo, set, write, false)
		}
		dst = appendPiece(dst, max(iv.Lo, coldLo), min(iv.Hi, coldHi), set, write, true)
		if iv.Hi > coldHi {
			dst = appendPiece(dst, coldHi, iv.Hi, set, write, false)
		}
	}
	return dst
}

// appendPiece stores the fields in place: appending a Piece literal builds
// it on the stack and copies it, which stalls on store forwarding and
// costs several times as much.
func appendPiece(dst []Piece, lo, hi uint64, set uint32, write, cold bool) []Piece {
	dst = append(dst, Piece{})
	p := &dst[len(dst)-1]
	p.Lo, p.Hi, p.Set, p.Write, p.Cold = lo, hi, set, write, cold
	return dst
}

// partners[c] is the set of piece classes (cold<<1 | write) a piece of
// class c pairs with: a write pairs with every class and a read only with
// writes, and two cold pieces never pair.
var partners = [4]uint8{
	0b1010, // hot read: hot and cold writes
	0b1111, // hot write: everything
	0b0010, // cold read: hot writes
	0b0011, // cold write: hot reads and writes
}

// Pairs is an interval join over the pieces of nsets sets. It returns
// every pair of sets i < j holding overlapping pieces of which at least one
// writes and at most one is cold, encoded as i<<32 | j, each pair once, in
// ascending order. Pieces must be non-empty; Pairs reorders them.
//
// The sweep visits pieces in address order and keeps the pieces still live
// in one list per class, walking only the lists the new piece can pair
// with, and drops a dead piece from a list the next time the list is
// walked. Found pairs go into an nsets × nsets bit matrix, the size of the
// segment graph's closure, whose rows are then read out in order. So past
// sorting the pieces and reading the matrix it costs the number of
// overlapping piece pairs, not the number of set pairs.
func Pairs(pieces []Piece, nsets int) []uint64 {
	pieces = sortByLo(pieces)
	type live struct {
		hi  uint64
		set int
	}
	// One allocation holds every list of a small run.
	var lists [4][]live
	backing := make([]live, 4*16)
	for k := range lists {
		lists[k] = backing[k*16 : k*16 : k*16+16]
	}
	row := (nsets + 63) / 64
	found := make([]uint64, nsets*row)
	n := 0
	for x := range pieces {
		p := &pieces[x]
		c := 0
		if p.Write {
			c = 1
		}
		if p.Cold {
			c |= 2
		}
		set := int(p.Set)
		for k, mask := 0, partners[c]; mask != 0; k, mask = k+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			l, kept := lists[k], 0
			for y := range l {
				q := l[y]
				if q.hi <= p.Lo {
					continue // dead: every later piece starts at or above p.Lo
				}
				l[kept] = q
				kept++
				i, j := q.set, set
				if i == j {
					continue
				}
				if i > j {
					i, j = j, i
				}
				if w, b := &found[i*row+j/64], uint64(1)<<(j%64); *w&b == 0 {
					*w |= b
					n++
				}
			}
			lists[k] = l[:kept]
		}
		lists[c] = append(lists[c], live{})
		q := &lists[c][len(lists[c])-1]
		q.hi, q.set = p.Hi, set
	}
	out := make([]uint64, 0, n)
	for i := 0; i < nsets; i++ {
		for k, w := range found[i*row : (i+1)*row] {
			for ; w != 0; w &= w - 1 {
				out = append(out, uint64(i)<<32|uint64(k*64+bits.TrailingZeros64(w)))
			}
		}
	}
	return out
}

// sortByLo sorts ps by Lo and returns the result, in ps or in a scratch
// slice. Up to 64 pieces it runs an insertion sort in place. Past that it
// runs an LSD radix sort: one stable pass per byte in which some Lo differs
// from the first, moving the pieces between ps and the scratch slice.
func sortByLo(ps []Piece) []Piece {
	if len(ps) <= 64 {
		for i := 1; i < len(ps); i++ {
			p, j := ps[i], i
			for ; j > 0 && ps[j-1].Lo > p.Lo; j-- {
				ps[j] = ps[j-1]
			}
			ps[j] = p
		}
		return ps
	}
	var diff uint64
	for i := range ps {
		diff |= ps[i].Lo ^ ps[0].Lo
	}
	tmp := make([]Piece, len(ps))
	for shift := 0; shift < 64 && diff>>shift != 0; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var at [256]int32
		for i := range ps {
			at[ps[i].Lo>>shift&0xff]++
		}
		var sum int32
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for i := range ps {
			d := ps[i].Lo >> shift & 0xff
			tmp[at[d]] = ps[i]
			at[d]++
		}
		ps, tmp = tmp, ps
	}
	return ps
}
