package core

import (
	"math/rand"
	"testing"

	"repro/internal/itree"
	"repro/internal/vm"
)

// access is one generated event: a load or store, or (seg >= 0) a switch of
// the thread's current segment.
type access struct {
	addr  uint64
	width uint8
	write bool
	seg   int
}

// genStream builds a random access stream over nseg segments from the
// shapes the combiner must handle: dense sweeps in both directions, strided
// (never adjacent) accesses, 9-12 interleaved sweeps that overflow the slots
// and force evictions, and mixed-width overlapping accesses in a small
// window, with segment switches landing mid-stream.
func genStream(rng *rand.Rand, nseg int) []access {
	var out []access
	emit := func(addr uint64, w uint8) {
		out = append(out, access{addr: addr, width: w, write: rng.Intn(3) == 0, seg: -1})
		if rng.Intn(200) == 0 {
			out = append(out, access{seg: rng.Intn(nseg)})
		}
	}
	widths := []uint8{1, 2, 4, 8}
	for chunk := 0; chunk < 6; chunk++ {
		base := uint64(rng.Intn(1<<16)) * 8
		w := widths[rng.Intn(len(widths))]
		n := 1 + rng.Intn(300)
		switch rng.Intn(5) {
		case 0: // dense forward sweep
			for i := 0; i < n; i++ {
				emit(base+uint64(i)*uint64(w), w)
			}
		case 1: // dense reversed sweep
			for i := n - 1; i >= 0; i-- {
				emit(base+uint64(i)*uint64(w), w)
			}
		case 2: // strided: a gap after every access
			stride := uint64(w) + 1 + uint64(rng.Intn(24))
			for i := 0; i < n; i++ {
				emit(base+uint64(i)*stride, w)
			}
		case 3: // 9-12 interleaved sweeps over separate arrays
			k := 9 + rng.Intn(4)
			for i := 0; i < n; i++ {
				for s := 0; s < k; s++ {
					emit(base+uint64(s)<<20+uint64(i)*uint64(w), w)
				}
			}
		case 4: // mixed widths, overlapping, in a small window
			for i := 0; i < n; i++ {
				emit(base+uint64(rng.Intn(96)), widths[rng.Intn(len(widths))])
			}
		}
	}
	return out
}

// TestCombinerMatchesDirectInsert: recording through the write-combining
// buffers must leave every segment's trees exactly as inserting each access
// straight into them does.
func TestCombinerMatchesDirectInsert(t *testing.T) {
	const nseg = 4
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := genStream(rng, nseg)

		tg := New(DefaultOptions())
		th := &vm.Thread{}
		ts := tg.newThreadState(th)
		segs := make([]*Segment, nseg)
		refR := make([]*itree.Tree, nseg)
		refW := make([]*itree.Tree, nseg)
		for i := range segs {
			segs[i] = &Segment{Reads: itree.New(), Writes: itree.New()}
			refR[i], refW[i] = itree.New(), itree.New()
		}
		cur := 0
		ts.setCur(segs[cur])
		for _, a := range stream {
			if a.seg >= 0 {
				cur = a.seg
				ts.setCur(segs[cur])
				continue
			}
			tg.record(th, a.addr, a.width, a.write)
			if a.write {
				refW[cur].InsertPoint(a.addr, a.width)
			} else {
				refR[cur].InsertPoint(a.addr, a.width)
			}
		}
		tg.flushThreads()
		for i, s := range segs {
			for _, c := range []struct {
				kind      string
				got, want *itree.Tree
			}{{"reads", s.Reads, refR[i]}, {"writes", s.Writes, refW[i]}} {
				if c.got.Len() != c.want.Len() {
					t.Fatalf("seed %d seg %d %s: Len %d, direct insertion %d",
						seed, i, c.kind, c.got.Len(), c.want.Len())
				}
				g, w := c.got.Intervals(), c.want.Intervals()
				for k := range w {
					if g[k] != w[k] {
						t.Fatalf("seed %d seg %d %s: interval %d = %v, direct insertion %v",
							seed, i, c.kind, k, g[k], w[k])
					}
				}
			}
		}
		if tg.Stats.AccessesRecorded != uint64(len(stream))-countSwitches(stream) {
			t.Fatalf("seed %d: AccessesRecorded = %d", seed, tg.Stats.AccessesRecorded)
		}
	}
}

func countSwitches(stream []access) uint64 {
	var n uint64
	for _, a := range stream {
		if a.seg >= 0 {
			n++
		}
	}
	return n
}

// TestAbsorbedRecordDoesNotAllocate: an access that extends a pending run
// must cost no allocation — the point of the buffer is that the dense
// common case never reaches the treap.
func TestAbsorbedRecordDoesNotAllocate(t *testing.T) {
	tg := New(DefaultOptions())
	th := &vm.Thread{}
	tg.newThreadState(th).setCur(&Segment{Reads: itree.New(), Writes: itree.New()})
	addr := uint64(0x10000)
	if n := testing.AllocsPerRun(1000, func() {
		tg.record(th, addr, 8, true)
		tg.record(th, addr, 4, false)
		addr += 8
	}); n != 0 {
		t.Fatalf("absorbed record allocates %.1f times per access pair, want 0", n)
	}
}
