package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// File framing. A segment file is:
//
//	segMagic
//	{ blockMagic u32:len u32:crc payload }*
//
// Every run block is CRC-framed, so a reader walks the frames from the
// start and stops at the first torn or corrupt one (a crash mid-append);
// everything before it is intact. Segments written by older builds end in
// a JSON footer index, which the walk stops at the same way.
const (
	segMagic   = "TGSEG01\n"
	blockMagic = "TGRB"

	// DefaultMaxEvents bounds one run's retained events (spans + instants
	// + samples); further events are counted as dropped, keeping a
	// runaway run from exhausting memory.
	DefaultMaxEvents = 1 << 20
)

// Writer appends runs to a store directory. One Writer serializes appends
// from any number of concurrently recording RunWriters (explore sweep
// workers) into one fresh segment file per session and never rewrites
// existing ones, so the store is append-only at every level. A store has
// one Writer at a time: Create holds an exclusive lock on the directory
// until Close, so two sessions cannot hand out the same run IDs.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	lock    *os.File // the store directory, locked until Close
	nextRun uint64
	closed  bool

	droppedEvents atomic.Uint64
	finishedRuns  atomic.Uint64
}

// Create opens a store directory for appending, creating it if needed. It
// fails, naming the directory, while another Writer has the store open.
// Existing segments are read only for the next run ID and segment index;
// their contents are never modified.
func Create(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create: %w", err)
	}
	lock, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: create: %w", err)
	}
	if err := lockExclusive(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	w := &Writer{lock: lock}
	if err := w.openSegment(dir); err != nil {
		lock.Close()
		return nil, err
	}
	return w, nil
}

func segName(idx int) string { return fmt.Sprintf("seg-%05d.tgseg", idx) }

// openSegment continues run IDs after the highest one already in dir and
// creates the session's segment after the highest existing index.
// Unreadable segments are skipped, never overwritten.
func (w *Writer) openSegment(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.tgseg"))
	if err != nil {
		return err
	}
	maxSeg := 0
	for _, p := range paths {
		var idx int
		if _, serr := fmt.Sscanf(filepath.Base(p), "seg-%d.tgseg", &idx); serr == nil && idx > maxSeg {
			maxSeg = idx
		}
		blocks, serr := readSegment(p)
		if serr != nil {
			continue
		}
		for _, b := range blocks {
			var h struct {
				ID uint64 `json:"id"`
			}
			if decodeHeader(&dec{buf: b}, &h) == nil && h.ID > w.nextRun {
				w.nextRun = h.ID
			}
		}
	}
	path := filepath.Join(dir, segName(maxSeg+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		// Best effort: a segment left holding part of the magic reads
		// as empty anyway.
		os.Remove(path)
		return fmt.Errorf("store: open segment: %w", err)
	}
	w.f = f
	return nil
}

// Close closes the segment and releases the store. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return errors.Join(w.f.Close(), w.lock.Close())
}

// Stats returns the writer's cumulative drop accounting across all its
// RunWriters — the trace-loss numbers surfaced as obs metrics.
func (w *Writer) Stats() (droppedEvents, finishedRuns uint64) {
	return w.droppedEvents.Load(), w.finishedRuns.Load()
}

// Begin starts recording one run. The returned RunWriter must be used from
// a single goroutine; Finish appends the encoded block to the store.
func (w *Writer) Begin(h RunHeader) *RunWriter {
	w.mu.Lock()
	w.nextRun++
	h.ID = w.nextRun
	w.mu.Unlock()
	return &RunWriter{w: w, h: h, d: newDict()}
}

// cols is the columnar (struct-of-arrays) builder events append to.
type cols struct {
	spanStart, spanEnd, spanPC  []uint64
	spanThread                  []int32
	spanKind, spanName, spanSym []uint32
	instTS, instArg             []uint64
	instThread                  []int32
	instKind, instName          []uint32
	samplePC, sampleW           []uint64
	sampleSym                   []uint32
}

// RunWriter accumulates one run's records. Each event interns its strings
// and appends to the columnar builders; Finish sorts, delta-encodes and
// appends the block.
type RunWriter struct {
	w *Writer
	h RunHeader
	d *dict
	c cols

	events  int
	dropped uint64
	done    bool
}

// Header returns the (store-assigned) run header as begun.
func (rw *RunWriter) Header() RunHeader { return rw.h }

// admit counts one event against DefaultMaxEvents and reports whether the
// run retains it. Strings are interned before the check, so the dictionary
// holds every string in arrival order, dropped events' included.
func (rw *RunWriter) admit() bool {
	if rw.events >= DefaultMaxEvents {
		rw.dropped++
		return false
	}
	rw.events++
	return true
}

// Span records one interval.
func (rw *RunWriter) Span(thread int, kind, name, sym string, pc, start, end uint64) {
	k, n, s := rw.d.id(kind), rw.d.id(name), rw.d.id(sym)
	if !rw.admit() {
		return
	}
	c := &rw.c
	c.spanStart = append(c.spanStart, start)
	c.spanEnd = append(c.spanEnd, end)
	c.spanPC = append(c.spanPC, pc)
	c.spanThread = append(c.spanThread, int32(thread))
	c.spanKind = append(c.spanKind, k)
	c.spanName = append(c.spanName, n)
	c.spanSym = append(c.spanSym, s)
}

// Instant records one point event.
func (rw *RunWriter) Instant(ts uint64, thread int, kind, name string, arg uint64) {
	k, n := rw.d.id(kind), rw.d.id(name)
	if !rw.admit() {
		return
	}
	c := &rw.c
	c.instTS = append(c.instTS, ts)
	c.instArg = append(c.instArg, arg)
	c.instThread = append(c.instThread, int32(thread))
	c.instKind = append(c.instKind, k)
	c.instName = append(c.instName, n)
}

// Sample records one weighted guest-PC profile sample.
func (rw *RunWriter) Sample(pc uint64, sym string, weight uint64) {
	s := rw.d.id(sym)
	if !rw.admit() {
		return
	}
	c := &rw.c
	c.samplePC = append(c.samplePC, pc)
	c.sampleW = append(c.sampleW, weight)
	c.sampleSym = append(c.sampleSym, s)
}

// AddRace appends one race-report row to the run header.
func (rw *RunWriter) AddRace(r RaceRow) { rw.h.Races = append(rw.h.Races, r) }

// SetCounters attaches the final metrics snapshot to the run header.
func (rw *RunWriter) SetCounters(c map[string]uint64) { rw.h.Counters = c }

// SetResult records the run outcome into the header before Finish. verdict
// is VerdictOK or a failure taxonomy kind; errStr carries the rendered
// error for failures.
func (rw *RunWriter) SetResult(verdict string, reports int, errStr string) {
	rw.h.Verdict = verdict
	rw.h.Reports = reports
	rw.h.Err = errStr
}

// SetWork records the run's deterministic work and wall-clock metrics.
func (rw *RunWriter) SetWork(instrs, blocks, wallNanos uint64) {
	rw.h.Instrs, rw.h.Blocks, rw.h.WallNanos = instrs, blocks, wallNanos
}

// SetReproduced marks a verified (replayed bit-identically) crash.
func (rw *RunWriter) SetReproduced(v bool) { rw.h.Reproduced = v }

// SetReplayToken stamps the run's reproduction recipe.
func (rw *RunWriter) SetReplayToken(tok string) { rw.h.ReplayToken = tok }

// SetDigest stamps the run's digest sum.
func (rw *RunWriter) SetDigest(sum string) { rw.h.Digest = sum }

// Dropped returns how many of the run's events DefaultMaxEvents dropped.
func (rw *RunWriter) Dropped() uint64 { return rw.dropped }

// Abort discards the run without writing anything (a run that never
// started). The store-assigned run ID is not reused. A nil RunWriter's
// Abort is a no-op.
func (rw *RunWriter) Abort() {
	if rw != nil {
		rw.done = true
	}
}

// Finish encodes the run block and appends it to the store. The RunWriter
// is unusable afterwards.
func (rw *RunWriter) Finish() error {
	if rw.done {
		return nil
	}
	rw.done = true
	if rw.h.Verdict == "" {
		rw.h.Verdict = VerdictOK
	}
	payload, err := rw.encode()
	if err != nil {
		return err
	}
	rw.w.droppedEvents.Add(rw.dropped)
	rw.w.finishedRuns.Add(1)
	return rw.w.appendBlock(payload)
}

// sortPerm returns indices 0..n-1 ordered by less, stable.
func sortPerm(n int, less func(i, j int) bool) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	sort.SliceStable(p, func(a, b int) bool { return less(p[a], p[b]) })
	return p
}

// encode produces the block payload.
func (rw *RunWriter) encode() ([]byte, error) {
	c := &rw.c
	e := &enc{}
	hdr, err := json.Marshal(rw.h)
	if err != nil {
		return nil, err
	}
	e.bytesSection(hdr)
	de := &enc{}
	rw.d.encode(de)
	e.bytesSection(de.buf)

	// Spans, sorted by (start, end, thread): starts become non-negative
	// deltas.
	sp := sortPerm(len(c.spanStart), func(i, j int) bool {
		if c.spanStart[i] != c.spanStart[j] {
			return c.spanStart[i] < c.spanStart[j]
		}
		if c.spanEnd[i] != c.spanEnd[j] {
			return c.spanEnd[i] < c.spanEnd[j]
		}
		return c.spanThread[i] < c.spanThread[j]
	})
	e.u64(uint64(len(sp)))
	col := func(fill func(e *enc)) {
		sub := &enc{}
		fill(sub)
		e.bytesSection(sub.buf)
	}
	col(func(s *enc) {
		prev := uint64(0)
		for _, i := range sp {
			s.u64(c.spanStart[i] - prev)
			prev = c.spanStart[i]
		}
	})
	col(func(s *enc) {
		for _, i := range sp {
			s.u64(c.spanEnd[i] - c.spanStart[i])
		}
	})
	col(func(s *enc) {
		for _, i := range sp {
			s.i64(int64(c.spanThread[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range sp {
			s.u64(uint64(c.spanKind[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range sp {
			s.u64(uint64(c.spanName[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range sp {
			s.u64(uint64(c.spanSym[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range sp {
			s.u64(c.spanPC[i])
		}
	})

	// Instants, sorted by ts (stable: emission order preserved at equal
	// clock values — the block clock only moves at block boundaries).
	ip := sortPerm(len(c.instTS), func(i, j int) bool { return c.instTS[i] < c.instTS[j] })
	e.u64(uint64(len(ip)))
	col(func(s *enc) {
		prev := uint64(0)
		for _, i := range ip {
			s.u64(c.instTS[i] - prev)
			prev = c.instTS[i]
		}
	})
	col(func(s *enc) {
		for _, i := range ip {
			s.i64(int64(c.instThread[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range ip {
			s.u64(uint64(c.instKind[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range ip {
			s.u64(uint64(c.instName[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range ip {
			s.u64(c.instArg[i])
		}
	})

	// Samples, sorted by PC.
	pp := sortPerm(len(c.samplePC), func(i, j int) bool { return c.samplePC[i] < c.samplePC[j] })
	e.u64(uint64(len(pp)))
	col(func(s *enc) {
		prev := uint64(0)
		for _, i := range pp {
			s.u64(c.samplePC[i] - prev)
			prev = c.samplePC[i]
		}
	})
	col(func(s *enc) {
		for _, i := range pp {
			s.u64(uint64(c.sampleSym[i]))
		}
	})
	col(func(s *enc) {
		for _, i := range pp {
			s.u64(c.sampleW[i])
		}
	})
	return e.buf, nil
}

// appendBlock frames and writes one run block.
func (w *Writer) appendBlock(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: append to closed writer")
	}
	var frame [12]byte
	copy(frame[0:], blockMagic)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.f.Write(payload)
	return err
}
