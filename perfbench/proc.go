package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process counters a phase is
// measured by.
type procSnap struct {
	at       time.Time
	cpu      time.Duration // user + system
	alloc    uint64        // cumulative heap bytes allocated
	numGC    uint64
	gcCPU    float64 // GC CPU seconds (runtime estimate)
	totalCPU float64 // all CPU seconds available to Go (runtime estimate)
	pauses   *metrics.Float64Histogram
	steal    uint64 // machine-wide ticks stolen by the hypervisor
	ticks    uint64 // machine-wide ticks in every state
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func takeSnap() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	snap := procSnap{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
	snap.steal, snap.ticks = cpuTicks()
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.numGC = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		snap.pauses = s[3].Value.Float64Histogram()
	}
	return snap
}

// procDelta is what happened between two snapshots.
type procDelta struct {
	wall, cpu  time.Duration
	alloc      uint64
	gcs        uint64
	gcCPUShare float64
	pauseP99us float64
	steal      float64 // share of the machine's CPU time the hypervisor stole
}

func deltaOf(a, b procSnap) procDelta {
	d := procDelta{wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, gcs: b.numGC - a.numGC}
	if tc := b.totalCPU - a.totalCPU; tc > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / tc
	}
	d.pauseP99us = histDeltaQuantile(a.pauses, b.pauses, 0.99) * 1e6
	if b.ticks > a.ticks {
		d.steal = float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
	}
	return d
}

// histDeltaQuantile is the q-quantile of the observations that landed in a
// cumulative histogram between readings a and b (the upper bound of the
// bucket that holds it; 0 with no observations).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(rankIndex(int(total), q)) + 1
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= need {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// ticks stolen by the hypervisor and the total over all states.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
