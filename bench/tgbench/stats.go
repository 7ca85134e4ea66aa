package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// residentMiB reads the process's resident set size (VmRSS). Off Linux it
// falls back to the memory the Go runtime obtained from the OS.
func residentMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return mib(s[0].Value.Uint64())
}

// cpuTimes reads the machine's total and stolen CPU time, in clock ticks,
// from /proc/stat; zeros off Linux. Steal is time the hypervisor gave a
// virtual machine's CPUs to other guests.
func cpuTimes() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// goSample is a reading of the Go runtime counters the go.* metrics use.
type goSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// goMetrics reports the runtime's work between two readings, per run.
func goMetrics(m *metricSet, before, after goSample, runs int) {
	n := float64(max(runs, 1))
	m.add("go.alloc_mib_per_run", "MiB", mib(after.allocBytes-before.allocBytes)/n)
	m.add("go.gc_cycles_per_run", "count", float64(after.gcCycles-before.gcCycles)/n)
	m.add("go.gc_cpu_frac", "ratio", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}
