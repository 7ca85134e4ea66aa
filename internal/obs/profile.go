package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/guest"
)

// Profiler samples the guest program counter on the block clock: every
// Interval-th dispatched block contributes one sample at its entry PC,
// weighted by the block's retired guest instruction count. The weighting
// makes a sample measure instructions rather than dispatches — a long block
// weighs more than a short one, and at interval 1 the profile total equals
// the machine's retired instruction count — so -profile and `query top`
// rank code by the work it does. Because the block clock is deterministic,
// the profile is exactly reproducible from (program, seed). Samples resolve through the image's
// symbol and line tables into a flat and a per-symbol profile — where
// instrumented execution time goes, the measurement behind every "make the
// hot path faster" decision.
type Profiler struct {
	// Interval is the sampling period in blocks (1 = every block).
	Interval uint64

	tick    uint64
	samples map[uint64]uint64 // block entry PC -> sample count
	total   uint64
}

// NewProfiler creates a profiler sampling every interval blocks (minimum 1).
func NewProfiler(interval uint64) *Profiler {
	if interval == 0 {
		interval = 1
	}
	return &Profiler{Interval: interval, samples: make(map[uint64]uint64)}
}

// Sample ticks the block clock with the PC of a dispatched block, at unit
// weight. A nil receiver is a no-op so dispatch loops can call through an
// unconditional pointer.
func (p *Profiler) Sample(pc uint64) { p.SampleW(pc, 1) }

// SampleW ticks the block clock with the PC of a dispatched block that
// retired weight guest instructions. The clock advances once per block
// regardless of weight; when the interval fires, the sample is credited
// weight counts (a zero-weight fire — e.g. a thread-exit dispatch that
// retires nothing — advances the clock without recording).
func (p *Profiler) SampleW(pc, weight uint64) {
	if p == nil {
		return
	}
	p.tick++
	if p.tick >= p.Interval {
		p.tick = 0
		if weight > 0 {
			p.samples[pc] += weight
			p.total += weight
		}
	}
}

// Total returns the number of samples taken.
func (p *Profiler) Total() uint64 {
	if p == nil {
		return 0
	}
	return p.total
}

// Each visits every (block entry PC, weighted count) sample pair in
// ascending PC order — the deterministic iteration recording backends use
// to persist the profile.
func (p *Profiler) Each(fn func(pc, count uint64)) {
	if p == nil {
		return
	}
	pcs := make([]uint64, 0, len(p.samples))
	for pc := range p.samples {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		fn(pc, p.samples[pc])
	}
}

// BySymbol aggregates the samples per enclosing symbol.
func (p *Profiler) BySymbol(im *guest.Image) map[string]uint64 {
	out := make(map[string]uint64)
	if p == nil {
		return out
	}
	for pc, n := range p.samples {
		name := "?"
		if im != nil {
			if sym := im.SymbolFor(pc); sym != nil {
				name = sym.Name
			}
		}
		out[name] += n
	}
	return out
}

// flatEntry is one resolved PC row of the profile.
type flatEntry struct {
	pc    uint64
	count uint64
	sym   string
	file  string
	line  int
}

// Report writes the per-symbol and flat profiles, resolving sample PCs
// through the image's symbol and line tables. topN bounds the flat section
// (0 = 20).
func (p *Profiler) Report(w io.Writer, im *guest.Image, topN int) error {
	if p == nil {
		_, err := fmt.Fprintln(w, "(profiler disabled)")
		return err
	}
	if topN <= 0 {
		topN = 20
	}
	flat := make([]flatEntry, 0, len(p.samples))
	bySym := make(map[string]uint64)
	for pc, n := range p.samples {
		e := flatEntry{pc: pc, count: n, sym: "?"}
		if im != nil {
			if sym := im.SymbolFor(pc); sym != nil {
				e.sym = sym.Name
			}
			e.file, e.line = im.LineFor(pc)
		}
		bySym[e.sym] += n
		flat = append(flat, e)
	}
	// Deterministic ordering: count desc, then address.
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].count != flat[j].count {
			return flat[i].count > flat[j].count
		}
		return flat[i].pc < flat[j].pc
	})
	type symRow struct {
		name  string
		count uint64
	}
	syms := make([]symRow, 0, len(bySym))
	for name, n := range bySym {
		syms = append(syms, symRow{name, n})
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].count != syms[j].count {
			return syms[i].count > syms[j].count
		}
		return syms[i].name < syms[j].name
	})

	total := p.total
	if total == 0 {
		total = 1
	}
	if _, err := fmt.Fprintf(w, "guest-PC profile: %d samples, interval %d blocks\n\n", p.total, p.Interval); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "per-symbol:\n%10s %7s  %s\n", "SAMPLES", "%", "SYMBOL"); err != nil {
		return err
	}
	for _, s := range syms {
		if _, err := fmt.Fprintf(w, "%10d %6.2f%%  %s\n", s.count, 100*float64(s.count)/float64(total), s.name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nflat (top %d):\n%10s %7s  %-10s %s\n", topN, "SAMPLES", "%", "PC", "LOCATION"); err != nil {
		return err
	}
	for i, e := range flat {
		if i >= topN {
			break
		}
		loc := e.sym
		if e.file != "" {
			loc = fmt.Sprintf("%s (%s:%d)", e.sym, e.file, e.line)
		}
		if _, err := fmt.Fprintf(w, "%10d %6.2f%%  0x%-8x %s\n", e.count, 100*float64(e.count)/float64(total), e.pc, loc); err != nil {
			return err
		}
	}
	return nil
}
