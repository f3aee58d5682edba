package main

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host, and the speed of those
// cores moves by half and more in spells of seconds to minutes: the same
// arithmetic takes 4 ms or 7 ms, the same map lookups 5 ms or 10 ms, and the
// two move independently (README.md, "Repeatability"). A window of unchanged
// code moves with them — by 60 % between two sets of ten runs an hour apart —
// which is more than any bound a benchmark could set.
//
// So beside what it measures, a run times a reference kernel of the
// benchmark's own — fixed arithmetic, lookups in a fixed map, updates of a
// fixed table; no allocation, no call into the program — in the gaps of the
// phase it is measuring, and reports that phase's timings at the kernel's
// nominal speed: each sample ÷ (the reading nearest to it ÷ refKernelMS), and
// of those the median. A change to the program cannot move the kernel, so it
// moves the reported timing by the same share as the measured one.

// refKernelMS is the kernel's time on the host the benchmark was written on,
// in the fastest state that host was seen in.
const refKernelMS = 12.0

const (
	refMapKeys   = 40_000
	refTableSize = 1 << 19 // 4 MB of uint64
)

var (
	refMap   map[string]int64
	refKeys  []string
	refTable []uint64
	refSink  uint64
	refOnce  sync.Once
)

func refInit() {
	refMap = make(map[string]int64, refMapKeys)
	refKeys = make([]string, 0, refMapKeys)
	for i := 0; i < refMapKeys; i++ {
		k := "key-" + strconv.Itoa(i*7919%1000003)
		refMap[k] = int64(i)
		refKeys = append(refKeys, k)
	}
	refTable = make([]uint64, refTableSize)
}

// refKernel runs the reference kernel once and returns how long it took. Its
// three parts are what the program's windows are made of: register
// arithmetic, hashing and comparing string keys against a map larger than the
// near caches, and scattered memory writes. Of the weightings tried against
// the four workloads' windows, none did better on all four than equal parts.
func refKernel() time.Duration {
	refOnce.Do(refInit)
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 4_000_000; i++ {
		a = a*3 + 1
		b = b*5 + 7
		c ^= c<<13 | 1
		d += a ^ b
	}
	var s int64
	j := 0
	for i := 0; i < 100_000; i++ {
		j = (j + 7919) % refMapKeys
		s += refMap[refKeys[j]]
	}
	h := uint64(88172645463325252)
	for i := 0; i < 1_000_000; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		refTable[h&(refTableSize-1)] += h
	}
	refSink += a + b + c + d + uint64(s)
	return time.Since(t0)
}

// hostClock collects the reference kernel's readings over one phase of a run.
// Only the goroutine that runs the phase's windows (or set-up rounds) takes
// readings, right after one of them, so that a reading is of the core and the
// moment the sample beside it was measured on.
type hostClock struct {
	at []time.Time // when each reading ended, ascending
	ms []float64
}

func (h *hostClock) sample() {
	d := refKernel()
	h.at = append(h.at, time.Now())
	h.ms = append(h.ms, ms(d))
}

// slowdown is how slow the host ran around time t: the reading taken nearest
// to t over the kernel's nominal time. With no readings it is 1.
func (h *hostClock) slowdown(t time.Time) float64 {
	if len(h.at) == 0 {
		return 1
	}
	k := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(t) })
	if k == len(h.at) || (k > 0 && t.Sub(h.at[k-1]) < h.at[k].Sub(t)) {
		k--
	}
	return h.ms[k] / refKernelMS
}

// atNominal is the median of the samples with each scaled to the kernel's
// nominal speed by the reading nearest to it in time; sample i ended at[i].
func (h *hostClock) atNominal(samples []float64, at []time.Time) float64 {
	scaled := make([]float64, len(samples))
	for i, x := range samples {
		scaled[i] = x / h.slowdown(at[i])
	}
	return median(scaled)
}

// factor is how slow the host ran over the whole phase: the median reading
// over the kernel's nominal time.
func (h *hostClock) factor() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return median(h.ms) / refKernelMS
}
