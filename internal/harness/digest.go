package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest is a finished run's canonical outcome: everything the run
// computed, which every way of executing one configuration must reproduce
// — either engine, a cold or warm translation store, a journal-verified
// replay, the CLI or the daemon. Numbers that measure where translation
// happened stay out (translations, store and cache hits, translate and
// compile time, the cache and machine footprints, which charge per
// translation).
type Digest struct {
	// Report, Stdout and Crash are the rendered tool report, the guest
	// output and the rendered crash report; Token is the replay token and
	// Inject the injector's fired/seen summary.
	Report, Stdout, Crash, Token, Inject string
	// Exit, Blocks, Instrs, Dirty, Accesses and Pages are the exit code,
	// executed blocks and instructions, dirty calls, accesses delivered
	// to the tool and resident guest pages.
	Exit, Blocks, Instrs, Dirty, Accesses, Pages uint64
	// Mem is the guest memory hash, State the machine state digest.
	Mem, State uint64
}

// Digest builds the digest of the finished run from its rendered report,
// guest output, crash report and replay token.
func (inst *Instance) Digest(report, stdout, crash, token string) Digest {
	m := inst.M
	return Digest{
		Report: report, Stdout: stdout, Crash: crash, Token: token,
		Inject: inst.Inject.Summary(),
		Exit:   m.ExitCode(), Blocks: m.BlocksExecuted, Instrs: m.InstrsExecuted,
		Dirty: inst.Core.DirtyCalls, Accesses: inst.Core.AccessesDelivered,
		Pages: uint64(m.Mem.ResidentPages()),
		Mem:   m.Mem.Hash(), State: m.StateDigest(),
	}
}

// Sum returns the hex SHA-256 of d's encoding: each string as its
// little-endian 64-bit length and its bytes, then each number as a
// little-endian 64-bit word, in field order.
func (d Digest) Sum() string {
	var b []byte
	for _, s := range []string{d.Report, d.Stdout, d.Crash, d.Token, d.Inject} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, v := range []uint64{d.Exit, d.Blocks, d.Instrs, d.Dirty, d.Accesses, d.Pages, d.Mem, d.State} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
