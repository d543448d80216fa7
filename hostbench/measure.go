package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many samples a reported tail percentile must leave
// above it; with fewer, the percentile describes a handful of frames.
const tailBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples
// and how many samples lie strictly above its rank. samples is sorted in
// place.
func percentile(samples []float64, p float64) (v float64, beyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p*float64(len(samples)))) - 1
	rank = max(0, min(rank, len(samples)-1))
	return samples[rank], len(samples) - 1 - rank
}

// tailPercentile is percentile under the reporting rule: ok is false when
// fewer than tailBeyond samples lie above the p-quantile.
func tailPercentile(samples []float64, p float64) (v float64, ok bool) {
	v, beyond := percentile(samples, p)
	return v, beyond >= tailBeyond
}

// minTailSamples is the smallest sample count whose p90 leaves
// tailBeyond samples above it, with a margin of ten per cent.
const minTailSamples = 110

// median returns the middle of xs (the mean of the middle two for an even
// count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time (host CPU clock).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read at the edges of a timed segment.
const (
	mAllocs   = "/gc/heap/allocs:objects"
	mLiveHeap = "/gc/heap/live:bytes"
	mSchedLat = "/sched/latencies:seconds"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
)

// snapshot is the process state at one edge of a timed segment.
type snapshot struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	gcCPU  float64
	sched  *metrics.Float64Histogram
}

func takeSnapshot() snapshot {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mSchedLat}}
	metrics.Read(s)
	return snapshot{
		wall:   time.Now(),
		cpu:    cpuTime(),
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		sched:  s[2].Value.Float64Histogram(),
	}
}

// windowStats is what the harness measures over a window's timed
// segments.
type windowStats struct {
	wall, cpu    time.Duration
	allocs       uint64
	gcCPUShare   float64 // GC CPU over process CPU
	schedP90us   float64 // goroutine scheduling latency p90, µs
	peakHeapByte uint64
	// Medians over the window's chunks.
	fps, cpuMSPerFrame float64
	chunkFPS           []float64 // in window order
}

// segments sums the process state over the timed segments of a window.
// Set-ups run between segments and are left out.
type segments struct {
	wall, cpu time.Duration
	allocs    uint64
	gcCPU     float64
	sched     []uint64  // scheduling latencies counted per bucket
	buckets   []float64 // the scheduling-latency bucket edges
}

// add adds the segment between snapshots a and b.
func (s *segments) add(a, b snapshot) {
	s.wall += b.wall.Sub(a.wall)
	s.cpu += b.cpu - a.cpu
	s.allocs += b.allocs - a.allocs
	s.gcCPU += b.gcCPU - a.gcCPU
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return
	}
	if s.sched == nil {
		s.sched, s.buckets = make([]uint64, len(b.sched.Counts)), b.sched.Buckets
	}
	for i := range b.sched.Counts {
		s.sched[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

func (s *segments) stats(peakHeap uint64) windowStats {
	w := windowStats{wall: s.wall, cpu: s.cpu, allocs: s.allocs, peakHeapByte: peakHeap}
	if w.cpu > 0 {
		w.gcCPUShare = s.gcCPU / w.cpu.Seconds()
	}
	w.schedP90us = histQuantile(s.sched, s.buckets, 0.9) * 1e6
	return w
}

// histQuantile returns the q-quantile of observations counted per bucket
// of a runtime histogram, as the upper edge of the bucket that holds it
// (the lower edge for the open-ended last bucket).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	if len(counts) == 0 || len(buckets) != len(counts)+1 {
		return math.NaN()
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}

// liveHeap reads the heap the most recent garbage collection marked
// live. It changes only when a GC cycle ends, so reading it after every
// step of a window sees each value the window passes through, without a
// sampler goroutine waking inside the window. Unlike the heap in use, it
// leaves out garbage not yet swept, whose amount depends on where in its
// cycle the collector happens to be.
type liveHeap struct {
	s    []metrics.Sample
	peak uint64
}

func newLiveHeap() *liveHeap {
	return &liveHeap{s: []metrics.Sample{{Name: mLiveHeap}}}
}

// observe reads the live heap and keeps the peak.
func (h *liveHeap) observe() {
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64())
}
