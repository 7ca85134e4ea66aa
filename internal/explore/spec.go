package explore

// The run recipe. A run of this system is a pure function of its
// configuration (program, tool, seed, injection spec, ...), so a
// crash is fully reproduced by re-running with the same configuration. Spec
// is that configuration — the one struct behind `taskgrind` flags, daemon
// job submissions and seed sweeps — and its replay token is the same
// configuration, canonically encoded and printed at the bottom of every
// crash report; `taskgrind -replay <token>` decodes it and re-runs.

import (
	"encoding/base64"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/dbi"
	"repro/internal/faultinject"
	"repro/internal/lulesh"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
)

// Spec is one run's complete configuration — the fields a `tg1:` replay
// token carries, plus run budgets and daemon behavior. The zero value of
// every field is a sensible default (Normalize fills them), so
// `{"prog":"task.c"}` is a valid daemon submission.
type Spec struct {
	Prog       string `json:"prog"`
	Tool       string `json:"tool,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Threads    int    `json:"threads,omitempty"`
	Inject     string `json:"inject,omitempty"`
	InjectSeed uint64 `json:"inject_seed,omitempty"`
	Lenient    bool   `json:"lenient,omitempty"`

	// Seeds > 1 turns a daemon submission into a seed-range sweep: the
	// server expands it into Seeds jobs (seeds Seed..Seed+Seeds-1) sharing
	// one group, all riding the same worker pool; GET /groups/{id}
	// aggregates them into an Outcome.
	Seeds int `json:"seeds,omitempty"`

	// LULESH proxy-app parameters (prog=lulesh only).
	LSize    int  `json:"ls,omitempty"`
	LIters   int  `json:"li,omitempty"`
	LTasksEl int  `json:"lte,omitempty"`
	LTasksNd int  `json:"ltn,omitempty"`
	LRacy    bool `json:"lracy,omitempty"`

	// Budgets. TimeoutMS falls back to the caller's default deadline
	// (Env.Timeout) when zero; MaxBlocks/MaxInstrs are unlimited when zero.
	MaxBlocks uint64 `json:"max_blocks,omitempty"`
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`

	// Supervised drives the run through harness.Supervise: a crash must
	// reproduce under journal-verified replay before it is reported
	// (Execution.Reproduced), and a host panic degrades to the IR oracle
	// instead of failing the run.
	Supervised bool `json:"supervised,omitempty"`
}

// Normalize fills defaulted fields in place — the CLI's flag defaults — so
// equal runs carry equal specs and equal replay tokens whichever front end
// built them.
func (sp *Spec) Normalize() {
	if sp.Prog == "" {
		sp.Prog = "task.c"
	}
	if sp.Tool == "" {
		sp.Tool = "taskgrind"
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Threads == 0 {
		sp.Threads = 4
	}
	if sp.Seeds <= 0 {
		sp.Seeds = 1
	}
	if sp.Prog == "lulesh" {
		if sp.LSize == 0 {
			sp.LSize = 8
		}
		if sp.LIters == 0 {
			sp.LIters = 2
		}
		if sp.LTasksEl == 0 {
			sp.LTasksEl = 4
		}
		if sp.LTasksNd == 0 {
			sp.LTasksNd = 4
		}
	}
}

// Validate rejects specs that could never run: unknown program, tool or
// injection spec. Called after Normalize.
func (sp *Spec) Validate() error {
	if _, err := progs.Build(sp.Prog, sp.Lulesh()); err != nil {
		return err
	}
	if _, _, err := toolreg.Make(sp.Tool); err != nil {
		return err
	}
	if _, err := faultinject.ParseSpec(sp.Inject, sp.InjectSeed); err != nil {
		return err
	}
	return nil
}

// Lulesh bundles the spec's proxy-app parameters.
func (sp *Spec) Lulesh() lulesh.Params {
	return lulesh.Params{S: sp.LSize, TEL: sp.LTasksEl, TNL: sp.LTasksNd,
		Iters: sp.LIters, Racy: sp.LRacy}
}

// tokenPrefix versions the encoding; bump on incompatible changes.
const tokenPrefix = "tg1:"

// Token canonically encodes the replayable part of the spec. Keys are
// sorted (url.Values encoding) and zero fields omitted, so equal
// configurations always produce equal, short tokens; the injection seed is
// dropped when nothing is injected and the LULESH parameters when the
// program is not LULESH, since neither changes such a run. A spec without a
// program name (an assembled source) cannot be replayed and has no token.
func (sp Spec) Token() string {
	if sp.Prog == "" {
		return ""
	}
	v := url.Values{}
	set := func(k, val string) {
		if val != "" {
			v.Set(k, val)
		}
	}
	setInt := func(k string, n int) {
		if n != 0 {
			v.Set(k, strconv.Itoa(n))
		}
	}
	setU64 := func(k string, n uint64) {
		if n != 0 {
			v.Set(k, strconv.FormatUint(n, 10))
		}
	}
	setBool := func(k string, b bool) {
		if b {
			v.Set(k, "1")
		}
	}
	set("prog", sp.Prog)
	set("tool", sp.Tool)
	setU64("seed", sp.Seed)
	setInt("threads", sp.Threads)
	set("inject", sp.Inject)
	if sp.Inject != "" {
		setU64("iseed", sp.InjectSeed)
	}
	setBool("lenient", sp.Lenient)
	if sp.Prog == "lulesh" {
		setInt("ls", sp.LSize)
		setInt("li", sp.LIters)
		setInt("lte", sp.LTasksEl)
		setInt("ltn", sp.LTasksNd)
		setBool("lracy", sp.LRacy)
	}
	return tokenPrefix + base64.RawURLEncoding.EncodeToString([]byte(v.Encode()))
}

// ParseToken decodes a replay token back into the spec it encodes. Tokens
// naming a setting this build no longer has are refused rather than run
// under another configuration.
func ParseToken(tok string) (Spec, error) {
	var sp Spec
	if !strings.HasPrefix(tok, tokenPrefix) {
		return sp, fmt.Errorf("explore: not a replay token (want %q prefix)", tokenPrefix)
	}
	raw, err := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(tok, tokenPrefix))
	if err != nil {
		return sp, fmt.Errorf("explore: malformed replay token: %w", err)
	}
	v, err := url.ParseQuery(string(raw))
	if err != nil {
		return sp, fmt.Errorf("explore: malformed replay token payload: %w", err)
	}
	if v.Has("extend") {
		// Superblock extension was removed. Its blocks were the scheduling
		// quantum, so replaying at basic-block granularity would silently
		// run a different schedule.
		return sp, fmt.Errorf("explore: replay token carries extend=%s; superblock extension was removed, so the run cannot be reproduced", v.Get("extend"))
	}
	if v.Has("slice") {
		// No front end sets the timeslice; a token that carries one names
		// a schedule the default slice would not reproduce.
		return sp, fmt.Errorf("explore: replay token carries slice=%s; the timeslice is no longer configurable, so the run cannot be reproduced", v.Get("slice"))
	}
	// Tokens printed before the engine setting was removed may carry
	// engine=compiled, the one engine that remains; it is ignored.
	if e := v.Get("engine"); v.Has("engine") && e != dbi.EngineCompiled {
		// The IR interpreter is now only the compiled engine's oracle, and
		// it never consults the injected engine-panic stream, so its runs
		// cannot be promised to replay under the compiled engine.
		return sp, fmt.Errorf("explore: replay token carries engine=%s; only the compiled engine can be selected, so the run cannot be reproduced", e)
	}
	// Tokens printed before the delivery mode was removed all carry
	// delivery=batched, the one path that remains; it is ignored.
	if d := v.Get("delivery"); v.Has("delivery") && d != "batched" {
		// Per-event delivery handed the tool every access before it
		// executed; batched delivery hands a block's accesses over at its
		// end, so a run that faults mid-block gives the tool fewer. A
		// per-event crash cannot be promised to replay byte for byte.
		return sp, fmt.Errorf("explore: replay token carries delivery=%s; per-event delivery was removed, so the run cannot be reproduced", d)
	}
	sp.Prog = v.Get("prog")
	sp.Tool = v.Get("tool")
	sp.Inject = v.Get("inject")
	sp.Lenient = v.Get("lenient") == "1"
	sp.LRacy = v.Get("lracy") == "1"
	for _, f := range []struct {
		k   string
		dst *uint64
	}{{"seed", &sp.Seed}, {"iseed", &sp.InjectSeed}} {
		if v.Has(f.k) {
			if *f.dst, err = strconv.ParseUint(v.Get(f.k), 10, 64); err != nil {
				return sp, fmt.Errorf("explore: token field %s: %w", f.k, err)
			}
		}
	}
	for _, f := range []struct {
		k   string
		dst *int
	}{
		{"threads", &sp.Threads},
		{"ls", &sp.LSize}, {"li", &sp.LIters}, {"lte", &sp.LTasksEl}, {"ltn", &sp.LTasksNd},
	} {
		if v.Has(f.k) {
			if *f.dst, err = strconv.Atoi(v.Get(f.k)); err != nil {
				return sp, fmt.Errorf("explore: token field %s: %w", f.k, err)
			}
		}
	}
	return sp, nil
}
