package store

import (
	"encoding/binary"
	"encoding/json"
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
//	footerJSON u32:crc u32:len footMagic
//
// Every run block is CRC-framed, so a reader can recover a segment whose
// footer never landed (crash mid-flush) by scanning blocks until the first
// torn frame; everything before it is intact.
const (
	segMagic   = "TGSEG01\n"
	blockMagic = "TGRB"
	footMagic  = "TGFT"

	// DefaultBatch is the in-memory event batch size: the tracing fast
	// path appends raw records to the batch; every DefaultBatch events one
	// amortized pass moves them into the columnar builders.
	DefaultBatch = 4096
	// DefaultMaxEvents bounds one run's retained events (spans + instants
	// + samples); further events are counted as dropped, keeping a
	// runaway run from exhausting memory.
	DefaultMaxEvents = 1 << 20
	// DefaultMaxSegBytes rotates the segment file when it grows past this.
	DefaultMaxSegBytes = 4 << 20
)

// BlockMeta is one run block's footer index entry: enough identity to
// answer header-level queries and enough range information (time span,
// threads, symbols) for the reader to skip the block on filtered scans
// without decoding it.
type BlockMeta struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`

	Run     uint64 `json:"run"`
	Prog    string `json:"prog,omitempty"`
	Tool    string `json:"tool,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Verdict string `json:"verdict"`

	TSMin   uint64   `json:"ts_min"`
	TSMax   uint64   `json:"ts_max"`
	Threads []int    `json:"threads,omitempty"`
	Syms    []string `json:"syms,omitempty"`

	Spans    int `json:"spans"`
	Instants int `json:"instants"`
	Samples  int `json:"samples"`
}

// Writer appends runs to a store directory. One Writer serializes appends
// from any number of concurrently recording RunWriters (explore sweep
// workers); each Writer session opens a fresh segment file and never
// rewrites existing ones, so the store is append-only at every level.
type Writer struct {
	// MaxSegBytes rotates the current segment once it exceeds this size
	// (default DefaultMaxSegBytes). Set before the first Finish.
	MaxSegBytes int64

	mu      sync.Mutex
	dir     string
	f       *os.File
	off     int64
	segIdx  int
	blocks  []BlockMeta
	nextRun uint64
	closed  bool

	flushedBatches atomic.Uint64
	droppedEvents  atomic.Uint64
	finishedRuns   atomic.Uint64
}

// Create opens a store directory for appending, creating it if needed.
// Existing segments are scanned only for the next run ID and segment index;
// their contents are never modified.
func Create(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create: %w", err)
	}
	maxRun, maxSeg, err := scanIdentity(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		dir:         dir,
		segIdx:      maxSeg,
		nextRun:     maxRun,
		MaxSegBytes: DefaultMaxSegBytes,
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// scanIdentity finds the highest run ID and segment index already present.
func scanIdentity(dir string) (maxRun uint64, maxSeg int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.tgseg"))
	if err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		var idx int
		if _, serr := fmt.Sscanf(filepath.Base(p), "seg-%d.tgseg", &idx); serr == nil && idx > maxSeg {
			maxSeg = idx
		}
		metas, _, serr := readSegment(p)
		if serr != nil {
			continue // unreadable segment: skip, never overwrite
		}
		for _, m := range metas {
			if m.Run > maxRun {
				maxRun = m.Run
			}
		}
	}
	return maxRun, maxSeg, nil
}

func segName(idx int) string { return fmt.Sprintf("seg-%05d.tgseg", idx) }

// openSegment starts the next segment file. Caller holds mu (or is the
// constructor).
func (w *Writer) openSegment() error {
	w.segIdx++
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.segIdx)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.off = int64(len(segMagic))
	w.blocks = nil
	return nil
}

// sealSegment writes the footer and closes the current segment file. Caller
// holds mu.
func (w *Writer) sealSegment() error {
	if w.f == nil {
		return nil
	}
	js, err := json.Marshal(w.blocks)
	if err != nil {
		return err
	}
	var tail [12]byte
	binary.LittleEndian.PutUint32(tail[0:], crc32.ChecksumIEEE(js))
	binary.LittleEndian.PutUint32(tail[4:], uint32(len(js)))
	copy(tail[8:], footMagic)
	if _, err := w.f.Write(append(js, tail[:]...)); err != nil {
		return err
	}
	err = w.f.Close()
	w.f = nil
	return err
}

// Close seals the open segment. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.sealSegment()
}

// Stats returns the writer's cumulative batch/drop accounting across all
// its RunWriters — the trace-loss numbers surfaced as obs metrics.
func (w *Writer) Stats() (flushedBatches, droppedEvents, finishedRuns uint64) {
	return w.flushedBatches.Load(), w.droppedEvents.Load(), w.finishedRuns.Load()
}

// Dir returns the store directory.
func (w *Writer) Dir() string { return w.dir }

// Begin starts recording one run. The returned RunWriter must be used from
// a single goroutine; Finish appends the encoded block to the store.
func (w *Writer) Begin(h RunHeader) *RunWriter {
	w.mu.Lock()
	w.nextRun++
	h.ID = w.nextRun
	w.mu.Unlock()
	return &RunWriter{
		w:         w,
		h:         h,
		d:         newDict(),
		maxEvents: DefaultMaxEvents,
		batch:     make([]rec, 0, DefaultBatch),
	}
}

// rec is one raw record in the fast-path batch.
type rec struct {
	kind    uint8 // 0 span, 1 instant, 2 sample
	a, b, c uint64
	thread  int32
	k, n, s uint32 // dict ids: kind, name, sym
}

// cols is the columnar (struct-of-arrays) builder a batch flushes into.
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

// RunWriter accumulates one run's records. Adds go to a fixed-size batch (a
// slice append on the tracing fast path); full batches flush into the
// columnar builders in one amortized pass; Finish sorts, delta-encodes and
// appends the block.
type RunWriter struct {
	w *Writer
	h RunHeader
	d *dict

	batch     []rec
	c         cols
	events    int
	maxEvents int

	flushed uint64
	dropped uint64
	done    bool
}

// Header returns the (store-assigned) run header as begun.
func (rw *RunWriter) Header() RunHeader { return rw.h }

// SetMaxEvents overrides the per-run retained event bound (0 keeps the
// default).
func (rw *RunWriter) SetMaxEvents(n int) {
	if n > 0 {
		rw.maxEvents = n
	}
}

func (rw *RunWriter) add(r rec) {
	if rw.events >= rw.maxEvents {
		rw.dropped++
		return
	}
	rw.events++
	rw.batch = append(rw.batch, r)
	if len(rw.batch) == cap(rw.batch) {
		rw.flush()
	}
}

// flush moves the batch into the columnar builders — the amortized step off
// the per-event fast path.
func (rw *RunWriter) flush() {
	for i := range rw.batch {
		r := &rw.batch[i]
		switch r.kind {
		case 0:
			rw.c.spanStart = append(rw.c.spanStart, r.a)
			rw.c.spanEnd = append(rw.c.spanEnd, r.b)
			rw.c.spanPC = append(rw.c.spanPC, r.c)
			rw.c.spanThread = append(rw.c.spanThread, r.thread)
			rw.c.spanKind = append(rw.c.spanKind, r.k)
			rw.c.spanName = append(rw.c.spanName, r.n)
			rw.c.spanSym = append(rw.c.spanSym, r.s)
		case 1:
			rw.c.instTS = append(rw.c.instTS, r.a)
			rw.c.instArg = append(rw.c.instArg, r.c)
			rw.c.instThread = append(rw.c.instThread, r.thread)
			rw.c.instKind = append(rw.c.instKind, r.k)
			rw.c.instName = append(rw.c.instName, r.n)
		case 2:
			rw.c.samplePC = append(rw.c.samplePC, r.c)
			rw.c.sampleW = append(rw.c.sampleW, r.a)
			rw.c.sampleSym = append(rw.c.sampleSym, r.s)
		}
	}
	if len(rw.batch) > 0 {
		rw.flushed++
	}
	rw.batch = rw.batch[:0]
}

// Span records one interval.
func (rw *RunWriter) Span(thread int, kind, name, sym string, pc, start, end uint64) {
	rw.add(rec{kind: 0, a: start, b: end, c: pc, thread: int32(thread),
		k: rw.d.id(kind), n: rw.d.id(name), s: rw.d.id(sym)})
}

// Instant records one point event.
func (rw *RunWriter) Instant(ts uint64, thread int, kind, name string, arg uint64) {
	rw.add(rec{kind: 1, a: ts, c: arg, thread: int32(thread),
		k: rw.d.id(kind), n: rw.d.id(name)})
}

// Sample records one weighted guest-PC profile sample.
func (rw *RunWriter) Sample(pc uint64, sym string, weight uint64) {
	rw.add(rec{kind: 2, a: weight, c: pc, s: rw.d.id(sym)})
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

// Stats returns the run's flushed-batch and dropped-event counts.
func (rw *RunWriter) Stats() (flushedBatches, droppedEvents uint64) {
	return rw.flushed, rw.dropped
}

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
	rw.flush()
	if rw.h.Verdict == "" {
		rw.h.Verdict = VerdictOK
	}
	payload, meta, err := rw.encode()
	if err != nil {
		return err
	}
	rw.w.flushedBatches.Add(rw.flushed)
	rw.w.droppedEvents.Add(rw.dropped)
	rw.w.finishedRuns.Add(1)
	return rw.w.appendBlock(payload, meta)
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

// encode produces the block payload and its footer meta.
func (rw *RunWriter) encode() ([]byte, BlockMeta, error) {
	c := &rw.c
	meta := BlockMeta{
		Run: rw.h.ID, Prog: rw.h.Prog, Tool: rw.h.Tool, Seed: rw.h.Seed,
		Verdict: rw.h.Verdict,
		Spans:   len(c.spanStart), Instants: len(c.instTS), Samples: len(c.samplePC),
	}
	// Range metadata for pruning: time over spans+instants, thread set,
	// symbol set (every non-empty dictionary string: kinds and names are
	// few, and including them lets name filters prune too).
	first := true
	span := func(lo, hi uint64) {
		if first {
			meta.TSMin, meta.TSMax, first = lo, hi, false
			return
		}
		if lo < meta.TSMin {
			meta.TSMin = lo
		}
		if hi > meta.TSMax {
			meta.TSMax = hi
		}
	}
	threads := map[int]bool{}
	for i := range c.spanStart {
		span(c.spanStart[i], c.spanEnd[i])
		threads[int(c.spanThread[i])] = true
	}
	for i := range c.instTS {
		span(c.instTS[i], c.instTS[i])
		threads[int(c.instThread[i])] = true
	}
	for t := range threads {
		meta.Threads = append(meta.Threads, t)
	}
	sort.Ints(meta.Threads)
	for _, s := range rw.d.strs {
		if s != "" {
			meta.Syms = append(meta.Syms, s)
		}
	}
	sort.Strings(meta.Syms)

	e := &enc{}
	hdr, err := json.Marshal(rw.h)
	if err != nil {
		return nil, meta, err
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
	return e.buf, meta, nil
}

// appendBlock frames and writes one run block, rotating the segment when it
// outgrows MaxSegBytes.
func (w *Writer) appendBlock(payload []byte, meta BlockMeta) error {
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
	if _, err := w.f.Write(payload); err != nil {
		return err
	}
	meta.Off = w.off
	meta.Len = int64(len(frame) + len(payload))
	w.off += meta.Len
	w.blocks = append(w.blocks, meta)
	if w.off >= w.MaxSegBytes {
		if err := w.sealSegment(); err != nil {
			return err
		}
		return w.openSegment()
	}
	return nil
}
