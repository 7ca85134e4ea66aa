package snapshot

// Replay tokens. A run of this system is a pure function of its
// configuration (program, tool, seed, engine, injection spec, ...), so a
// crash is fully reproduced by re-running with the same configuration. The
// token is that configuration, canonically encoded and printed at the bottom
// of every CrashReport; `taskgrind -replay <token>` decodes it and re-runs.

import (
	"encoding/base64"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// tokenPrefix versions the encoding; bump on incompatible changes.
const tokenPrefix = "tg1:"

// Config is the complete run configuration a replay token carries.
// Zero-valued fields are omitted from the encoding, so tokens stay short for
// default runs.
type Config struct {
	Prog       string
	Tool       string
	Seed       uint64
	Threads    int
	Slice      int
	Engine     string
	Inject     string
	InjectSeed uint64
	Lenient    bool

	// LULESH proxy-app parameters (prog=lulesh only).
	LSize    int
	LIters   int
	LTasksEl int
	LTasksNd int
	LRacy    bool
}

// Token canonically encodes the configuration. Keys are sorted (url.Values
// encoding), so equal configurations always produce equal tokens.
func (c Config) Token() string {
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
	set("prog", c.Prog)
	set("tool", c.Tool)
	setU64("seed", c.Seed)
	setInt("threads", c.Threads)
	setInt("slice", c.Slice)
	set("engine", c.Engine)
	set("inject", c.Inject)
	setU64("iseed", c.InjectSeed)
	if c.Lenient {
		v.Set("lenient", "1")
	}
	setInt("ls", c.LSize)
	setInt("li", c.LIters)
	setInt("lte", c.LTasksEl)
	setInt("ltn", c.LTasksNd)
	if c.LRacy {
		v.Set("lracy", "1")
	}
	return tokenPrefix + base64.RawURLEncoding.EncodeToString([]byte(v.Encode()))
}

// ParseToken decodes a replay token back into a configuration.
func ParseToken(tok string) (Config, error) {
	var c Config
	if !strings.HasPrefix(tok, tokenPrefix) {
		return c, fmt.Errorf("snapshot: not a replay token (want %q prefix)", tokenPrefix)
	}
	raw, err := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(tok, tokenPrefix))
	if err != nil {
		return c, fmt.Errorf("snapshot: malformed replay token: %w", err)
	}
	v, err := url.ParseQuery(string(raw))
	if err != nil {
		return c, fmt.Errorf("snapshot: malformed replay token payload: %w", err)
	}
	if v.Has("extend") {
		// Superblock extension was removed. Its blocks were the scheduling
		// quantum, so replaying at basic-block granularity would silently
		// run a different schedule.
		return c, fmt.Errorf("snapshot: replay token carries extend=%s; superblock extension was removed, so the run cannot be reproduced", v.Get("extend"))
	}
	// Tokens printed before the delivery mode was removed all carry
	// delivery=batched, the one path that remains; it is ignored.
	if d := v.Get("delivery"); v.Has("delivery") && d != "batched" {
		// Per-event delivery handed the tool every access before it
		// executed; batched delivery hands a block's accesses over at its
		// end, so a run that faults mid-block gives the tool fewer. A
		// per-event crash cannot be promised to replay byte for byte.
		return c, fmt.Errorf("snapshot: replay token carries delivery=%s; per-event delivery was removed, so the run cannot be reproduced", d)
	}
	geti := func(k string) (int, error) {
		if !v.Has(k) {
			return 0, nil
		}
		return strconv.Atoi(v.Get(k))
	}
	getu := func(k string) (uint64, error) {
		if !v.Has(k) {
			return 0, nil
		}
		return strconv.ParseUint(v.Get(k), 10, 64)
	}
	c.Prog = v.Get("prog")
	c.Tool = v.Get("tool")
	c.Engine = v.Get("engine")
	c.Inject = v.Get("inject")
	c.Lenient = v.Get("lenient") == "1"
	c.LRacy = v.Get("lracy") == "1"
	if c.Seed, err = getu("seed"); err != nil {
		return c, fmt.Errorf("snapshot: token field seed: %w", err)
	}
	if c.InjectSeed, err = getu("iseed"); err != nil {
		return c, fmt.Errorf("snapshot: token field iseed: %w", err)
	}
	for _, f := range []struct {
		k   string
		dst *int
	}{
		{"threads", &c.Threads}, {"slice", &c.Slice},
		{"ls", &c.LSize}, {"li", &c.LIters}, {"lte", &c.LTasksEl}, {"ltn", &c.LTasksNd},
	} {
		if *f.dst, err = geti(f.k); err != nil {
			return c, fmt.Errorf("snapshot: token field %s: %w", f.k, err)
		}
	}
	return c, nil
}
