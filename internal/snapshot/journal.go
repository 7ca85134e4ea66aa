// Package snapshot is the replay substrate of the robustness layer: a
// schedule journal that records — or verifies — every non-deterministic
// decision a run makes (per-slice scheduler picks, whether the perturb draw
// fired, per-kind fault-injection firings) and a periodic state mark. The
// replay token that names a run's configuration lives with that
// configuration, in internal/explore.
//
// The design leans on the same property Valgrind's serialized scheduler
// gives the paper's experiments: with one guest thread running at a time and
// every non-deterministic choice drawn from seeded streams, a run is a pure
// function of its configuration. A rewind is therefore a re-execution from
// boot, never a restore: rewound into verify mode, the journal checks the
// re-execution decision by decision, and its state digest at every mark,
// against the recording. A verified replay that reaches the end of the
// journal without divergence is, by construction, the same run.
//
// Verification is prefix-based on purpose: a fallback re-execution under the
// IR oracle never consults the compiled engine's panic-injection stream, so
// it legitimately draws *fewer* injection decisions than the recording. A
// replay consuming a strict prefix of a stream is consistent; consuming a
// different value is a divergence.
package snapshot

import "fmt"

// Mode selects whether the journal is being written or checked.
type Mode int

const (
	// Record appends decisions to the journal.
	Record Mode = iota
	// Verify checks decisions against the recording and flags divergence.
	Verify
)

// Divergence describes the first point where a verifying run departed from
// the recording. It implements error.
type Divergence struct {
	// What names the diverging stream ("pick", "perturb", "fire:<kind>",
	// "mark").
	What string
	// Slice is the scheduler slice index at the divergence.
	Slice uint64
	// Want is the recorded value, Got the replayed one.
	Want, Got string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("replay divergence at slice %d: %s: recorded %s, got %s",
		d.Slice, d.What, d.Want, d.Got)
}

// pickRec is one scheduler decision: the chosen thread and whether the
// perturbation draw shrank its slice.
type pickRec struct {
	TID       int32
	Perturbed bool
}

// Mark is a periodic cheap state digest, recorded every MarkEvery executed
// slices and cross-checked on replay (the online divergence probe). Digest
// folds registers, PCs, call stacks and scheduler counters; it excludes
// memory, which hashing at every mark would dominate.
type Mark struct {
	Slice  uint64
	Blocks uint64
	Instrs uint64
	Digest uint64
}

// Journal is the recorded decision stream of one run. Not internally
// synchronized: all writers run on the serialized machine loop.
type Journal struct {
	// Mode selects record vs verify behaviour.
	Mode Mode
	// Soft, in verify mode, records the first divergence without failing
	// the run — used when the re-execution is *expected* to depart (the
	// trusted IR fallback) and the journal's job is only to report where.
	Soft bool
	// MarkEvery is the state-mark cadence in executed slices (0: no
	// marks). The machine adds a mark at every MarkEvery-th slice end;
	// Verifier copies it, so a replay checks marks at the recorded cadence.
	MarkEvery int

	picks []pickRec
	fires map[int][]bool
	marks []Mark

	pos     int
	firePos map[int]int
	markPos int
	exhaust bool
	div     *Divergence
}

// NewJournal returns an empty journal in Record mode.
func NewJournal() *Journal {
	return &Journal{fires: make(map[int][]bool), firePos: make(map[int]int)}
}

// Verifier returns a journal sharing this recording, rewound to the start in
// Verify mode. The recording is not copied; do not record into the original
// while a verifier is live.
func (j *Journal) Verifier(soft bool) *Journal {
	return &Journal{
		Mode:      Verify,
		Soft:      soft,
		MarkEvery: j.MarkEvery,
		picks:     j.picks,
		fires:     j.fires,
		marks:     j.marks,
		firePos:   make(map[int]int),
	}
}

// diverge registers a divergence. In Soft mode only the first is retained
// and verification continues (subsequent checks are suppressed: once off the
// recorded path every later comparison is noise). In strict mode the
// divergence is sticky and returned to the caller.
func (j *Journal) diverge(d *Divergence) error {
	if j.div == nil {
		j.div = d
	}
	if j.Soft {
		j.exhaust = true
		return nil
	}
	return j.div
}

// Slice records (or verifies) one scheduler decision. slice is the machine's
// slice index, tid the chosen thread, perturbed whether the perturb draw
// fired. In verify mode a mismatch returns *Divergence (nil in Soft mode);
// running past the end of the recording silently stops verification — the
// recording ended (crash point or fallback window) and the replay continuing
// is expected.
func (j *Journal) Slice(slice uint64, tid int, perturbed bool) error {
	if j.Mode == Record {
		j.picks = append(j.picks, pickRec{TID: int32(tid), Perturbed: perturbed})
		return nil
	}
	// A sticky divergence from another stream (injection fires are checked
	// mid-slice, where no error can propagate) surfaces here, at the next
	// slice boundary.
	if j.div != nil && !j.Soft {
		return j.div
	}
	if j.exhaust {
		return nil
	}
	if j.pos >= len(j.picks) {
		j.exhaust = true
		return nil
	}
	rec := j.picks[j.pos]
	j.pos++
	if int(rec.TID) != tid {
		return j.diverge(&Divergence{What: "pick", Slice: slice,
			Want: fmt.Sprintf("t%d", rec.TID), Got: fmt.Sprintf("t%d", tid)})
	}
	if rec.Perturbed != perturbed {
		return j.diverge(&Divergence{What: "perturb", Slice: slice,
			Want: fmt.Sprintf("%v", rec.Perturbed), Got: fmt.Sprintf("%v", perturbed)})
	}
	return nil
}

// Fire records (or verifies) one fault-injection decision for an injection
// kind. Streams are per-kind so engines that consult different kinds (the IR
// oracle never draws from the compiled engine's panic stream) stay
// prefix-consistent.
func (j *Journal) Fire(kind int, fired bool) error {
	if j.Mode == Record {
		j.fires[kind] = append(j.fires[kind], fired)
		return nil
	}
	if j.exhaust {
		return nil
	}
	stream := j.fires[kind]
	pos := j.firePos[kind]
	if pos >= len(stream) {
		// Past the recorded prefix for this kind: stop checking it.
		j.firePos[kind] = pos + 1
		return nil
	}
	j.firePos[kind] = pos + 1
	if stream[pos] != fired {
		return j.diverge(&Divergence{What: fmt.Sprintf("fire:%d", kind), Slice: 0,
			Want: fmt.Sprintf("%v", stream[pos]), Got: fmt.Sprintf("%v", fired)})
	}
	return nil
}

// AddMark records (or verifies) a periodic state digest. Marks are the
// online divergence probe: a replayed run whose digest departs from the
// recording at a mark pins the divergence to the preceding window.
func (j *Journal) AddMark(m Mark) error {
	if j.Mode == Record {
		j.marks = append(j.marks, m)
		return nil
	}
	if j.exhaust {
		return nil
	}
	if j.markPos >= len(j.marks) {
		j.exhaust = true
		return nil
	}
	rec := j.marks[j.markPos]
	j.markPos++
	if rec != m {
		return j.diverge(&Divergence{What: "mark", Slice: m.Slice,
			Want: fmt.Sprintf("slice=%d blocks=%d instrs=%d digest=%#x", rec.Slice, rec.Blocks, rec.Instrs, rec.Digest),
			Got:  fmt.Sprintf("slice=%d blocks=%d instrs=%d digest=%#x", m.Slice, m.Blocks, m.Instrs, m.Digest)})
	}
	return nil
}

// Err returns the first divergence seen (strict or soft), or nil.
func (j *Journal) Err() *Divergence { return j.div }

// MarksMatched returns how many recorded marks this verifier has matched
// (a mark that diverged is not counted).
func (j *Journal) MarksMatched() int {
	n := j.markPos
	if j.div != nil && j.div.What == "mark" && n > 0 {
		n--
	}
	return n
}

// Len returns the number of recorded scheduler decisions.
func (j *Journal) Len() int { return len(j.picks) }

// Marks returns the recorded state marks.
func (j *Journal) Marks() []Mark { return j.marks }

// FireCount returns the number of recorded decisions for an injection kind.
func (j *Journal) FireCount(kind int) int { return len(j.fires[kind]) }
