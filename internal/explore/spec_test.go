package explore_test

import (
	"encoding/base64"
	"strings"
	"testing"

	"repro/internal/explore"
)

// token wraps a raw payload the way Token encodes one.
func token(payload string) string {
	return "tg1:" + base64.RawURLEncoding.EncodeToString([]byte(payload))
}

func TestTokenRoundTrip(t *testing.T) {
	sp := explore.Spec{
		Prog: "lulesh", Tool: "memcheck", Seed: 99, Threads: 4,
		Inject: "panic:every=3", InjectSeed: 1234, Lenient: true,
		LSize: 10, LIters: 8, LTasksEl: 4, LTasksNd: 2, LRacy: true,
	}
	tok := sp.Token()
	got, err := explore.ParseToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if got != sp {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, sp)
	}
	// Canonical: same config, same token.
	if sp.Token() != tok || got.Token() != tok {
		t.Fatal("token not deterministic")
	}
}

// TestTokenRejectsExtend: a token recorded with superblock extension names
// a block granularity this build no longer has; replaying it at basic-block
// granularity would run a different schedule, so it must not parse. Nor
// may a per-event delivery token: that mode handed a faulting block's
// accesses to the tool before they ran. Nor a token that fixes the
// timeslice, which no front end can set any more, nor one that ran the IR
// interpreter, which is now only the compiled engine's oracle. The batched
// and compiled settings older tokens carry are the kept paths: they parse
// as if absent, and the spec re-encodes without them.
func TestTokenRejectsExtend(t *testing.T) {
	for _, retired := range []string{"extend=64", "delivery=per-event", "slice=7", "engine=ir"} {
		_, err := explore.ParseToken(token(retired + "&prog=task.c&seed=1"))
		if err == nil || !strings.Contains(err.Error(), retired) {
			t.Fatalf("ParseToken(%s token) = %v, want an error naming it", retired, err)
		}
	}
	want := explore.Spec{Prog: "task.c", Seed: 1}
	for _, kept := range []string{"delivery=batched", "engine=compiled"} {
		got, err := explore.ParseToken(token(kept + "&prog=task.c&seed=1"))
		if err != nil || got != want || got.Token() != want.Token() {
			t.Fatalf("ParseToken(%s token) = %+v, %v; want %+v re-encoded as %s", kept, got, err, want, want.Token())
		}
	}
}

// TestTokenDefaultsOmitted: zero fields, an injection seed without an
// injection, and LULESH parameters of another program stay out of the
// token, so settings that cannot change a run cannot change its token.
func TestTokenDefaultsOmitted(t *testing.T) {
	short := explore.Spec{Prog: "fib", Tool: "core", Seed: 1}.Token()
	long := explore.Spec{Prog: "fib", Tool: "core", Seed: 1, Threads: 8,
		Inject: "heap:every=2;pool:every=3", InjectSeed: 42}.Token()
	if len(short) >= len(long) {
		t.Fatal("zero fields not omitted from encoding")
	}
	inert := explore.Spec{Prog: "fib", Tool: "core", Seed: 1, InjectSeed: 5,
		LSize: 8, LIters: 2, LTasksEl: 4, LTasksNd: 4, LRacy: true}
	if got := inert.Token(); got != short {
		t.Fatalf("inert fields changed the token: %s, want %s", got, short)
	}
	if tok := (explore.Spec{Tool: "taskgrind", Seed: 1}).Token(); tok != "" {
		t.Fatalf("a spec without a program has token %q, want none", tok)
	}
}

func TestTokenRejectsGarbage(t *testing.T) {
	for _, tok := range []string{"", "nope", "tg1:%%%", "tg2:AAAA"} {
		if _, err := explore.ParseToken(tok); err == nil {
			t.Fatalf("ParseToken(%q) accepted", tok)
		}
	}
	// Bad numeric fields.
	for _, payload := range []string{"seed=nope&prog=x", "prog=x&threads=many", "iseed=-1&prog=x"} {
		if _, err := explore.ParseToken(token(payload)); err == nil {
			t.Fatalf("ParseToken(%s) accepted", payload)
		}
	}
}
