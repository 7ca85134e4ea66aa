package main

import "time"

// On a small virtual machine that shares its server with other tenants,
// speed drifts with the neighbours' load: within minutes the same run took
// 60% longer on the reference host, while a plain arithmetic loop slowed by
// about 10%. The program under test is an interpreter, and interpreters
// suffer most when the core's caches and branch predictors are shared. So
// every run is followed by a probe, a fixed tiny register-machine
// interpreter that suffers the same way. The median probe time of a
// process gives the machine's speed over the same stretch of time as its
// runs, and every reported time is scaled by probeRefMs over that median:
// milliseconds at the reference speed.

// probeSteps is the probe's fixed work, in interpreted instructions.
const probeSteps = 2_000_000

// probeRefMs is the probe's median time on the reference host (Intel Xeon
// Sapphire Rapids, 2-vCPU KVM guest) when its neighbours were quiet.
const probeRefMs = 4.0

// prober owns the probe's data: 256 KiB, allocated once per process so
// that the probe itself allocates nothing and cannot trigger or pace a
// garbage collection.
type prober struct {
	mem  []uint64
	sink uint64 // keeps the loop's result alive
}

func newProber() *prober { return &prober{mem: make([]uint64, 1<<15)} }

// run executes the fixed interpreter loop and returns its wall time in
// milliseconds.
func (p *prober) run() float64 {
	type ins struct{ op, a, b, c uint8 }
	prog := []ins{
		{0, 2, 1, 13}, // r2 = r1 << 13
		{1, 1, 2, 0},  // r1 ^= r2
		{2, 2, 1, 7},  // r2 = r1 >> 7
		{1, 1, 2, 0},  // r1 ^= r2
		{3, 3, 1, 0},  // r3 = mem[r1]
		{4, 3, 1, 0},  // r3 += r1
		{5, 1, 3, 0},  // mem[r1] = r3
		{6, 4, 0, 0},  // r4++
		{7, 0, 0, 0},  // jump 0
	}
	mem := p.mem
	mask := uint64(len(mem) - 1)
	var r [8]uint64
	r[1] = 88172645463325252
	start := time.Now()
	for pc, step := 0, 0; step < probeSteps; step++ {
		in := prog[pc]
		pc++
		switch in.op {
		case 0:
			r[in.a] = r[in.b] << in.c
		case 1:
			r[in.a] ^= r[in.b]
		case 2:
			r[in.a] = r[in.b] >> in.c
		case 3:
			r[in.a] = mem[r[in.b]&mask]
		case 4:
			r[in.a] += r[in.b]
		case 5:
			mem[r[in.a]&mask] = r[in.b]
		case 6:
			r[in.a]++
		case 7:
			pc = 0
		}
	}
	d := time.Since(start)
	p.sink += r[4]
	return ms(d)
}

// speed is one process's machine speed relative to the reference host: a
// time measured here, multiplied by it, is the time at the reference speed.
type speed float64

// speedOf derives the speed from a process's probe times.
func speedOf(probes []float64) speed { return speed(ratio(probeRefMs, median(probes))) }

// scale converts a time measured here to the reference speed.
func (s speed) scale(t float64) float64 { return t * float64(s) }
