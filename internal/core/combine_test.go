package core

import (
	"math/rand"
	"testing"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/itree"
	"repro/internal/vm"
)

// access is one generated event: a load or store by the instruction at pc,
// or (seg >= 0) a switch of the thread's current segment.
type access struct {
	pc    uint64
	addr  uint64
	width uint8
	write bool
	seg   int
}

// genStream builds a random access stream over nseg segments from the
// shapes the combiner must handle: dense sweeps in both directions, strided
// (never adjacent) accesses, 9-12 interleaved sweeps that overflow the slots
// and force evictions, and mixed-width overlapping accesses in a small
// window, with segment switches landing mid-stream. The accesses come from
// 48 instructions, more than a combiner has slot hints for.
func genStream(rng *rand.Rand, nseg int) []access {
	var out []access
	emit := func(addr uint64, w uint8) {
		pc := guest.TextBase + uint64(rng.Intn(48))*guest.InstrBytes
		out = append(out, access{pc: pc, addr: addr, width: w, write: rng.Intn(3) == 0, seg: -1})
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

// inPool moves about a tenth of the stream's accesses into the runtime's
// fast pool, which IgnorePoolRegion filters.
func inPool(rng *rand.Rand, stream []access) []access {
	out := append([]access(nil), stream...)
	for i := range out {
		if out[i].seg < 0 && rng.Intn(10) == 0 {
			out[i].addr = guest.FastPoolBase + out[i].addr%(1<<20)
		}
	}
	return out
}

// recordStream feeds stream to a fresh Taskgrind with options opt and
// returns its segments once drained. Unbatched, each access goes through
// record, as the compile-time hooks deliver them; batched, the accesses go
// through FlushAccesses in batches of 1-16, and a batch never spans a
// segment switch, as a flush never spans the end of its block.
func recordStream(opt Options, stream []access, nseg int, batched bool, rng *rand.Rand) (*Taskgrind, []*Segment) {
	tg := New(opt)
	th := &vm.Thread{}
	ts := tg.newThreadState(th)
	segs := make([]*Segment, nseg)
	for i := range segs {
		segs[i] = &Segment{Reads: itree.New(), Writes: itree.New()}
	}
	var batch []dbi.Access
	deliver := func() {
		if len(batch) > 0 {
			tg.FlushAccesses(th, dbi.NewBatch(batch))
			batch = batch[:0]
		}
	}
	size := 1 + rng.Intn(16)
	ts.setCur(segs[0])
	for _, a := range stream {
		switch {
		case a.seg >= 0:
			deliver()
			ts.setCur(segs[a.seg])
		case !batched:
			tg.record(th, a.pc, a.addr, a.width, a.write)
		default:
			batch = append(batch, dbi.Access{PC: a.pc, Addr: a.addr, Wd: a.width, Store: a.write})
			if len(batch) == size {
				deliver()
				size = 1 + rng.Intn(16)
			}
		}
	}
	deliver()
	tg.flushThreads()
	return tg, segs
}

// TestCombinerMatchesDirectInsert: recording through the write-combining
// buffers, access by access or in batches, must leave every segment's trees
// exactly as inserting each kept access straight into them does, and count
// only the kept accesses. One arm filters the runtime's fast pool, with
// about a tenth of the accesses inside it. The first stream is one access at
// address 0 into an empty combiner, which no unused slot may absorb.
func TestCombinerMatchesDirectInsert(t *testing.T) {
	const nseg = 4
	for seed := int64(0); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := []access{{addr: 0, width: 8, seg: -1}}
		if seed > 0 {
			stream = genStream(rng, nseg)
		}
		for _, arm := range []struct {
			name    string
			pool    bool
			batched bool
		}{{"per-access", false, false}, {"batched", false, true}, {"batched, pool filtered", true, true}} {
			opt := DefaultOptions()
			opt.IgnorePoolRegion = arm.pool
			s := stream
			if arm.pool {
				s = inPool(rng, stream)
			}
			refR := make([]*itree.Tree, nseg)
			refW := make([]*itree.Tree, nseg)
			for i := range refR {
				refR[i], refW[i] = itree.New(), itree.New()
			}
			cur, kept := 0, uint64(0)
			for _, a := range s {
				switch {
				case a.seg >= 0:
					cur = a.seg
				case arm.pool && a.addr >= guest.FastPoolBase && a.addr < guest.FastPoolLimit:
					// filtered
				case a.write:
					refW[cur].InsertPoint(a.addr, a.width)
					kept++
				default:
					refR[cur].InsertPoint(a.addr, a.width)
					kept++
				}
			}
			tg, segs := recordStream(opt, s, nseg, arm.batched, rng)
			for i, seg := range segs {
				for _, c := range []struct {
					kind      string
					got, want *itree.Tree
				}{{"reads", seg.Reads, refR[i]}, {"writes", seg.Writes, refW[i]}} {
					if c.got.Len() != c.want.Len() {
						t.Fatalf("seed %d, %s: seg %d %s: Len %d, direct insertion %d",
							seed, arm.name, i, c.kind, c.got.Len(), c.want.Len())
					}
					g, w := c.got.Intervals(), c.want.Intervals()
					for k := range w {
						if g[k] != w[k] {
							t.Fatalf("seed %d, %s: seg %d %s: interval %d = %v, direct insertion %v",
								seed, arm.name, i, c.kind, k, g[k], w[k])
						}
					}
				}
			}
			if tg.Stats.AccessesRecorded != kept {
				t.Fatalf("seed %d, %s: AccessesRecorded = %d, want %d",
					seed, arm.name, tg.Stats.AccessesRecorded, kept)
			}
		}
	}
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
		tg.record(th, guest.TextBase, addr, 8, true)
		tg.record(th, guest.TextBase+guest.InstrBytes, addr, 4, false)
		addr += 8
	}); n != 0 {
		t.Fatalf("absorbed record allocates %.1f times per access pair, want 0", n)
	}
}
