package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of values by linear interpolation
// between the closest ranks; values need not be sorted.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// caller releases the benchmark's own inputs first.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// allocCounter reads the cumulative allocation counters around one
// call. runtime/metrics reads them without stopping the world.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	return allocCounter{mallocs: samples[0].Value.Uint64(), bytes: samples[1].Value.Uint64()}
}

func (a allocCounter) since(before allocCounter) allocCounter {
	return allocCounter{mallocs: a.mallocs - before.mallocs, bytes: a.bytes - before.bytes}
}

// The host. On a shared virtual machine other guests slow the same
// code in two ways, each by up to half within minutes: the hypervisor
// takes CPU time from the machine's CPUs (steal time), and the CPU time
// left runs slower for contention in caches, memory and the sibling
// hyperthread. A run therefore reports its times on a nominal host
// with neither. A time measured over an interval is multiplied by the
// share of the CPU time the machine's CPUs wanted in that interval that
// they got (see running), and a run's times by referenceNominal over
// the typical time of a fixed reference task sampled throughout the run
// (see hostClock); a rate is divided by both. A change to the program moves
// its times and neither correction: the reference task is the
// benchmark's own code and calls nothing of the program.
const referenceNominal = 2500 * time.Microsecond

// referenceTask is the reference work: string keys looked up in a map
// and integers sorted, the engine's dictionary and ordering work. It
// allocates nothing, so the state of the program's garbage collector
// does not change its time.
func referenceTask() int {
	ref := referenceData()
	hits := 0
	for i, k := range ref.probes {
		hits += ref.dict[k]
		ref.scratch[i] = uint64(len(k)) * 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	slices.Sort(ref.scratch)
	return hits + int(ref.scratch[0]&1)
}

// referenceData builds the reference task's inputs once.
var referenceData = sync.OnceValue(func() (ref struct {
	dict    map[string]int
	probes  []string
	scratch []uint64
}) {
	ref.dict = make(map[string]int, 8192)
	x := uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := "http://example.org/term/" + strconv.FormatUint(x%16384, 36)
		if i%2 == 0 {
			ref.dict[k] = i
		}
		ref.probes = append(ref.probes, k)
	}
	ref.scratch = make([]uint64, len(ref.probes))
	return ref
})

// referenceRuns is how many times one sample runs the task; the sample
// is the fastest run, so time stolen during a run does not count.
const referenceRuns = 3

// referenceSink keeps the reference task's result alive.
var referenceSink int

// hostClock collects a run's samples of the reference task's time. A
// nil hostClock samples nothing and converts nothing.
type hostClock struct {
	samples []float64 // ms
	start   cpuTicks
}

func newHostClock() *hostClock { return &hostClock{start: readTicks()} }

// sample times the reference task once.
func (h *hostClock) sample() {
	if h == nil {
		return
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < referenceRuns; i++ {
		start := time.Now()
		referenceSink += referenceTask()
		best = min(best, time.Since(start))
	}
	h.samples = append(h.samples, ms(best))
}

// speed converts the run's stolen-time-free times to the nominal host.
func (h *hostClock) speed() float64 {
	if h == nil || len(h.samples) == 0 {
		return 1
	}
	return ms(referenceNominal) / h.typical()
}

// typical is the mean of the middle half of the samples. The samples
// fall around two or more speeds, as the sibling hyperthread is busy or
// not; a median would jump from one to another with a small change in
// how often each came up.
func (h *hostClock) typical() float64 {
	s := slices.Clone(h.samples)
	slices.Sort(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

// whole converts a time measured at any point of the run so far to the
// nominal host.
func (h *hostClock) whole() float64 {
	if h == nil {
		return 1
	}
	return running(h.start, readTicks()) * h.speed()
}

// String describes the run's host for the listing.
func (h *hostClock) String() string {
	return fmt.Sprintf("CPU time stolen %.1f%%; reference task %d samples, %.2f-%.2f ms, quartiles %.2f %.2f %.2f ms, mean of the middle half %.2f ms (nominal %.2f ms)",
		100*(1-running(h.start, readTicks())), len(h.samples), slices.Min(h.samples), slices.Max(h.samples),
		quantile(h.samples, 0.25), median(h.samples), quantile(h.samples, 0.75), h.typical(), ms(referenceNominal))
}

// cpuTicks is a snapshot of the machine's CPU time counters, summed over
// its CPUs, in /proc/stat's units.
type cpuTicks struct{ busy, steal int64 }

// readTicks reads the counters; it returns zeros where the kernel does
// not report them.
func readTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// running returns the share of the CPU time the machine's CPUs wanted
// between two snapshots that they got: a CPU is stolen from only while
// it has work, so stolen time stretched the work in the interval by the
// inverse of this share. It is 1 when nothing was stolen or the kernel
// does not report it.
func running(from, to cpuTicks) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}
