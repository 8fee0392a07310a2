package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"mpquic/internal/perf"
)

// procSample is a snapshot of process-wide counters; the difference of
// two snapshots around a timed section gives its CPU and allocation
// cost. Both endpoints of a live workload share the process, so CPU
// here is the cost of the whole protocol path, client and server.
type procSample struct {
	wall       time.Duration
	cpu        time.Duration // user + system, from getrusage
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds, runtime/metrics estimate
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func sampleProc(sw *perf.Stopwatch) procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	s := procSample{
		wall:       sw.Elapsed(),
		cpu:        processCPU(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	return s
}

// procDelta is the cost of one timed section.
type procDelta struct {
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	gcCPU               float64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:       b.wall - a.wall,
		cpu:        b.cpu - a.cpu,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPU:      b.gcCPU - a.gcCPU,
	}
}

// procMetrics fills the proc.* per-layer metrics: allocations per
// packet, GC's share of the process CPU, and CPU utilization of the
// machine (CPU seconds / wall / nproc), which tells a cost from a wait.
func (d procDelta) procMetrics(m map[string]float64, pkts uint64, nproc int) {
	m["proc.allocs_per_pkt"] = ratio(float64(d.mallocs), float64(pkts))
	m["proc.alloc_bytes_per_pkt"] = ratio(float64(d.allocBytes), float64(pkts))
	m["proc.gc_cpu_frac"] = ratio(d.gcCPU, d.cpu.Seconds())
	m["proc.cpu_util"] = ratio(d.cpu.Seconds(), d.wall.Seconds()*float64(nproc))
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSampler samples the memory the Go runtime holds from the OS
// (mapped minus released to the OS): the process's resident memory
// as the runtime sees it. mem_mb is the median of these samples over
// the timed section, which tracks what the program keeps resident
// rather than the one-off peak that decides ru_maxrss.
type memSampler struct {
	s  [2]metrics.Sample
	mb []float64
}

func newMemSampler() *memSampler {
	return &memSampler{s: [2]metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}}
}

func (m *memSampler) sample() {
	metrics.Read(m.s[:])
	if m.s[0].Value.Kind() == metrics.KindUint64 && m.s[1].Value.Kind() == metrics.KindUint64 {
		m.mb = append(m.mb, float64(m.s[0].Value.Uint64()-m.s[1].Value.Uint64())/(1<<20))
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of durations in milliseconds.
func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return quantile(xs, 0.5)
}
