package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/itree"
	"repro/internal/report"
	"repro/internal/seggraph"
)

// AllPairsOracle re-runs the analysis of a finished run (Fini has run)
// with Algorithm 1's all-pairs loop, kept as the oracle the sweep is tested
// against, into a fresh report set and counters.
func (tg *Taskgrind) AllPairsOracle() (report.Set, Stats) {
	var out report.Set
	var st Stats
	active := tg.freeze()
	for i := range active {
		for j := i + 1; j < len(active); j++ {
			st.PairsChecked++
			if tg.graph.Ordered(active[i].Node, active[j].Node) {
				continue
			}
			tg.checkPair(active[i], active[j], &out, &st)
		}
	}
	out.Sort()
	return out, st
}

// Reanalyze re-runs Fini's sweep over a finished run into a fresh report
// set and counters.
func (tg *Taskgrind) Reanalyze() (report.Set, Stats) {
	var out report.Set
	var st Stats
	active := tg.freeze()
	tg.analyze(active, itree.Pairs(tg.pieces(active), len(active)), &out, &st)
	out.Sort()
	return out, st
}

// RenderRaces renders every field of every report, threads included,
// which Set.String leaves out.
func RenderRaces(s *report.Set) string {
	var b strings.Builder
	for _, r := range s.Races {
		fmt.Fprintf(&b, "[%d %d] %s", r.ThreadA, r.ThreadB, r)
	}
	return b.String()
}

// fuzzBytes hands out fuzz input bytes, then zeros once it runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzAnalysisSweep builds synthetic frozen segments from the fuzz bytes
// and checks that the sweep's candidates yield the all-pairs oracle's
// reports and counters. Addresses cluster where the candidate rule has
// edges: each segment's Frame, Frame − StackSuppressWindow and TLSLimit,
// plus TLS, heap, pool and globals. Windows of 0, 16, between
// Frame − TLSLimit and Frame, and above Frame, TLS on the same and on
// different threads and DTV generations, stack-lifetime suppression and a
// MaxReports of 2 all come from the input.
func FuzzAnalysisSweep(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		tg := fuzzRun(&in)
		got, st := tg.Reanalyze()
		want, wst := tg.AllPairsOracle()
		if g, w := RenderRaces(&got), RenderRaces(&want); g != w {
			t.Fatalf("reports differ (opt %+v)\n--- sweep\n%s--- all pairs\n%s", tg.Opt, g, w)
		}
		if st.ConflictPairs != wst.ConflictPairs || st.ReportsTotal != wst.ReportsTotal ||
			st.SuppressedTLS != wst.SuppressedTLS || st.PairsChecked > wst.PairsChecked {
			t.Fatalf("stats: sweep %+v, all pairs %+v", st, wst)
		}
	})
}

// fuzzRun builds a closed Taskgrind state from the input: options, 2-9
// segments with frames, threads, TLS generations and access trees, and
// forward happens-before edges.
func fuzzRun(in *fuzzBytes) *Taskgrind {
	opt := Options{MaxReports: 1024}
	o := in.next()
	opt.StackSuppression = o&1 != 0
	opt.TLSSuppression = o&2 != 0
	opt.StackLifetimeSuppression = o&4 != 0
	if o&8 != 0 {
		opt.MaxReports = 2
	}
	opt.StackSuppressWindow = []uint64{0, 16, 0x2000_0000, 1 << 40}[o>>4&3]
	tg := New(opt)
	tg.c = &dbi.Core{}
	tg.c.RecordAlloc(guest.HeapBase, 64, nil)

	const stackTop = 0x7fff_e000
	frames := []uint64{stackTop, stackTop - 0x40, stackTop - 0x48, guest.TLSLimit + 8, guest.TLSLimit, 0}
	anchors := []uint64{guest.DataBase, guest.HeapBase + 16, guest.FastPoolBase + 32,
		guest.TLSBase + 8, guest.TLSLimit - 4, guest.TLSLimit, guest.TLSLimit + 12}
	for _, fr := range frames[:4] {
		anchors = append(anchors, fr-24, fr-16, fr-8, fr, fr+8)
	}
	labels := []string{"a.c:1", "a.c:2", "b.c:1"}
	n := 2 + in.next()%8
	for i := 0; i < n; i++ {
		s := &Segment{
			Node:    tg.graph.AddNode(),
			Thread:  in.next() % 3,
			Label:   labels[in.next()%len(labels)],
			TLSGen:  uint64(in.next() % 2),
			Frame:   frames[in.next()%len(frames)],
			EventSP: stackTop - uint64(in.next()%8)*0x10,
			Reads:   itree.New(),
			Writes:  itree.New(),
		}
		s.TaskID = uint64(i)
		for k := in.next() % 7; k > 0; k-- {
			b := in.next()
			lo := anchors[in.next()%len(anchors)] + uint64(in.next()%16) - 8
			hi := lo + 1 + uint64(in.next()%24)
			if b&1 != 0 {
				s.Writes.Insert(lo, hi)
			} else {
				s.Reads.Insert(lo, hi)
			}
		}
		tg.segs = append(tg.segs, s)
	}
	for k := in.next() % 10; k > 0; k-- {
		u, v := in.next()%n, in.next()%n
		if u < v {
			tg.graph.AddEdge(seggraph.NodeID(u), seggraph.NodeID(v))
		}
	}
	tg.graph.Close()
	if opt.StackLifetimeSuppression {
		// Thread 0 owns the stack every frame above lives in.
		tg.stackOf = map[int][2]uint64{0: {stackTop - guest.StackSize, guest.StackRegionTop}}
		tg.lifetimes = map[int]*spIndex{}
		var nodes []seggraph.NodeID
		var sps []uint64
		for _, s := range tg.segs {
			if s.Thread == 0 {
				nodes = append(nodes, s.Node)
				sps = append(sps, s.EventSP)
			}
		}
		if len(nodes) > 0 {
			tg.lifetimes[0] = newSPIndex(nodes, sps)
		}
	}
	return tg
}
