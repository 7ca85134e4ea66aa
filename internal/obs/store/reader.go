package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// segment is one loaded segment file: the payloads of its intact frames,
// sliced from the file's bytes.
type segment struct {
	name   string
	blocks [][]byte
}

// Reader opens a store directory for querying. All segment bytes are held
// in memory; queries decode every block's header and a matching run's
// event columns only when the query reads events.
type Reader struct {
	segs []segment
}

// OpenReader loads every segment in dir, walking its CRC frames. The first
// torn or corrupt frame ends a segment (a crash mid-append), and so does
// the footer index older builds wrote; the blocks before it are kept.
func OpenReader(dir string) (*Reader, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.tgseg"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("store: no segments in %s", dir)
	}
	sort.Strings(paths)
	r := &Reader{}
	for _, p := range paths {
		blocks, err := readSegment(p)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", filepath.Base(p), err)
		}
		r.segs = append(r.segs, segment{name: filepath.Base(p), blocks: blocks})
	}
	return r, nil
}

// readSegment loads one segment and returns the payloads of its frames up
// to the first torn or corrupt one. A segment torn before its magic was
// complete (the empty file included) holds no runs.
func readSegment(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(segMagic) && string(data) == segMagic[:len(data)] {
		return nil, nil
	}
	if !bytes.HasPrefix(data, []byte(segMagic)) {
		return nil, fmt.Errorf("bad segment magic")
	}
	var blocks [][]byte
	off := len(segMagic)
	for off+12 <= len(data) && string(data[off:off+4]) == blockMagic {
		n := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		crc := binary.LittleEndian.Uint32(data[off+8 : off+12])
		if n < 0 || n > len(data)-off-12 {
			break
		}
		payload := data[off+12 : off+12+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		blocks = append(blocks, payload)
		off += 12 + n
	}
	return blocks, nil
}

// decodeHeader reads a block's leading header section into v (a RunHeader
// or any subset of its fields), leaving d at the string dictionary.
func decodeHeader(d *dec, v any) error {
	hs := d.bytesSection()
	if d.err != nil {
		return d.err
	}
	if err := json.Unmarshal(hs.buf, v); err != nil {
		return fmt.Errorf("store: block header: %w", err)
	}
	return nil
}

// decodeEvents decodes the dictionary and event columns that follow a
// block's header (already in rd.Header) into rd.
func decodeEvents(d *dec, rd *RunData) error {
	payload := d.buf
	strs := decodeDict(d.bytesSection())

	nSpans := d.u64()
	cols := func(k int) []*dec {
		out := make([]*dec, k)
		for i := range out {
			out[i] = d.bytesSection()
		}
		return out
	}
	sc := cols(7)
	if d.err == nil && nSpans <= uint64(len(payload)) {
		rd.Spans = make([]Span, 0, nSpans)
		prev := uint64(0)
		for i := uint64(0); i < nSpans; i++ {
			start := prev + sc[0].u64()
			prev = start
			rd.Spans = append(rd.Spans, Span{
				Run:    rd.Header.ID,
				Start:  start,
				End:    start + sc[1].u64(),
				Thread: int(sc[2].i64()),
				Kind:   dictStr(strs, sc[3].u64()),
				Name:   dictStr(strs, sc[4].u64()),
				Sym:    dictStr(strs, sc[5].u64()),
				PC:     sc[6].u64(),
			})
		}
	}

	nInst := d.u64()
	ic := cols(5)
	if d.err == nil && nInst <= uint64(len(payload)) {
		rd.Instants = make([]Instant, 0, nInst)
		prev := uint64(0)
		for i := uint64(0); i < nInst; i++ {
			ts := prev + ic[0].u64()
			prev = ts
			rd.Instants = append(rd.Instants, Instant{
				Run:    rd.Header.ID,
				TS:     ts,
				Thread: int(ic[1].i64()),
				Kind:   dictStr(strs, ic[2].u64()),
				Name:   dictStr(strs, ic[3].u64()),
				Arg:    ic[4].u64(),
			})
		}
	}

	nSamp := d.u64()
	pc := cols(3)
	if d.err == nil && nSamp <= uint64(len(payload)) {
		rd.Samples = make([]Sample, 0, nSamp)
		prev := uint64(0)
		for i := uint64(0); i < nSamp; i++ {
			p := prev + pc[0].u64()
			prev = p
			rd.Samples = append(rd.Samples, Sample{
				Run:    rd.Header.ID,
				PC:     p,
				Sym:    dictStr(strs, pc[1].u64()),
				Weight: pc[2].u64(),
			})
		}
	}
	if d.err != nil {
		return d.err
	}
	for _, c := range append(append(sc, ic...), pc...) {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// Q is a query predicate. The zero value matches everything; set fields to
// narrow. Identity predicates (Run, Tool, Prog, Verdict, Seed) select runs
// by their headers before any event column is decoded; row predicates
// (MinTS/MaxTS, Thread, Sym, Kind) apply to the decoded event rows.
type Q struct {
	Run     uint64 // 0 = any (run IDs start at 1)
	Tool    string
	Prog    string
	Verdict string
	Seed    *uint64

	MinTS uint64
	MaxTS uint64 // 0 = unbounded
	// Thread filters rows to one guest thread (nil = any).
	Thread *int
	// Sym matches a span/sample symbol or name, or an instant name.
	Sym string
	// Kind matches the span/instant kind.
	Kind string
}

// matchIdentity reports whether a run header passes q.
func (q Q) matchIdentity(h *RunHeader) bool {
	return (q.Run == 0 || h.ID == q.Run) &&
		(q.Prog == "" || h.Prog == q.Prog) &&
		(q.Tool == "" || h.Tool == q.Tool) &&
		(q.Verdict == "" || h.Verdict == q.Verdict) &&
		(q.Seed == nil || h.Seed == *q.Seed)
}

// scan hands fn every run whose header passes q's identity predicates, in
// segment and block order. Only with events set are the run's event
// columns decoded.
func (r *Reader) scan(q Q, events bool, fn func(rd *RunData)) error {
	for _, seg := range r.segs {
		for _, payload := range seg.blocks {
			var rd RunData
			d := &dec{buf: payload}
			if err := decodeHeader(d, &rd.Header); err != nil {
				return fmt.Errorf("store: %s: %w", seg.name, err)
			}
			if !q.matchIdentity(&rd.Header) {
				continue
			}
			if events {
				if err := decodeEvents(d, &rd); err != nil {
					return fmt.Errorf("store: %s: %w", seg.name, err)
				}
			}
			fn(&rd)
		}
	}
	return nil
}

// Runs returns the headers of every run matching q's identity predicates,
// ordered by run ID.
func (r *Reader) Runs(q Q) ([]RunHeader, error) {
	var out []RunHeader
	err := r.scan(q, false, func(rd *RunData) { out = append(out, rd.Header) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, err
}

// matchSpan applies q's row predicates to one span.
func (q Q) matchSpan(s Span) bool {
	if q.MaxTS != 0 && s.Start > q.MaxTS {
		return false
	}
	if q.MinTS != 0 && s.End < q.MinTS {
		return false
	}
	if q.Thread != nil && s.Thread != *q.Thread {
		return false
	}
	if q.Sym != "" && s.Sym != q.Sym && s.Name != q.Sym {
		return false
	}
	if q.Kind != "" && s.Kind != q.Kind {
		return false
	}
	return true
}

// Spans returns every span matching q, ordered by (run, start).
func (r *Reader) Spans(q Q) ([]Span, error) {
	var out []Span
	err := r.scan(q, true, func(rd *RunData) {
		for _, s := range rd.Spans {
			if q.matchSpan(s) {
				out = append(out, s)
			}
		}
	})
	return out, err
}

// matchInstant applies q's row predicates to one instant.
func (q Q) matchInstant(in Instant) bool {
	if q.MaxTS != 0 && in.TS > q.MaxTS {
		return false
	}
	if q.MinTS != 0 && in.TS < q.MinTS {
		return false
	}
	if q.Thread != nil && in.Thread != *q.Thread {
		return false
	}
	if q.Sym != "" && in.Name != q.Sym {
		return false
	}
	if q.Kind != "" && in.Kind != q.Kind {
		return false
	}
	return true
}

// Instants returns every instant matching q, ordered by (run, ts).
func (r *Reader) Instants(q Q) ([]Instant, error) {
	var out []Instant
	err := r.scan(q, true, func(rd *RunData) {
		for _, in := range rd.Instants {
			if q.matchInstant(in) {
				out = append(out, in)
			}
		}
	})
	return out, err
}

// Samples returns every profile sample matching q, ordered by (run, pc).
// A sample has no clock, thread or kind, so of q's row predicates only Sym
// applies.
func (r *Reader) Samples(q Q) ([]Sample, error) {
	var out []Sample
	err := r.scan(q, true, func(rd *RunData) {
		for _, s := range rd.Samples {
			if q.Sym != "" && s.Sym != q.Sym {
				continue
			}
			out = append(out, s)
		}
	})
	return out, err
}

// Data returns fully decoded runs matching q's identity predicates (row
// predicates are not applied — callers get whole runs for joins).
func (r *Reader) Data(q Q) ([]RunData, error) {
	var out []RunData
	err := r.scan(q, true, func(rd *RunData) { out = append(out, *rd) })
	sort.Slice(out, func(i, j int) bool { return out[i].Header.ID < out[j].Header.ID })
	return out, err
}
