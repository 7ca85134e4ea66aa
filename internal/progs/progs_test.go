package progs

import (
	"testing"

	"repro/internal/lulesh"
)

// TestCheckAcceptsEveryName: every program -list prints passes the check
// that job specs and the query pre-check run instead of a build.
func TestCheckAcceptsEveryName(t *testing.T) {
	lp := lulesh.Params{S: 2, TEL: 1, TNL: 1, Iters: 1}
	for _, name := range Names() {
		if err := Check(name, lp); err != nil {
			t.Errorf("Check(%q) = %v", name, err)
		}
	}
}

// TestCheckRejectsAsBuildDoes: an unknown name and bad LULESH parameters
// fail the check with the errors Build has always returned for them.
func TestCheckRejectsAsBuildDoes(t *testing.T) {
	good := lulesh.Params{S: 2, TEL: 1, TNL: 1, Iters: 1}
	for _, c := range []struct {
		name string
		lp   lulesh.Params
		want string
	}{
		{"no-such-prog", good, `unknown program "no-such-prog" (use -list)`},
		{"lulesh", lulesh.Params{TEL: 1, TNL: 1, Iters: 1},
			"lulesh: bad params {S:0 TEL:1 TNL:1 Iters:1 Racy:false Progress:false}"},
		{"lulesh", lulesh.Params{S: 2, TEL: 1, TNL: -1, Iters: 1, Racy: true},
			"lulesh: bad params {S:2 TEL:1 TNL:-1 Iters:1 Racy:true Progress:false}"},
	} {
		err := Check(c.name, c.lp)
		if err == nil || err.Error() != c.want {
			t.Errorf("Check(%q, %+v) = %v, want %q", c.name, c.lp, err, c.want)
		}
		if _, err := Build(c.name, c.lp); err == nil || err.Error() != c.want {
			t.Errorf("Build(%q, %+v) = %v, want %q", c.name, c.lp, err, c.want)
		}
	}
}
