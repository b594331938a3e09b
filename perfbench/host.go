package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time this process has used so
// far, over all its threads (the simulation goroutine and the Go
// runtime's background GC workers alike).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size in MiB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// involuntarySwitches returns how often the kernel preempted this
// process so far.
func involuntarySwitches() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return ru.Nivcsw
}

// stealTicks returns the host-wide steal time from /proc/stat in clock
// ticks: time the hypervisor ran something else while a virtual CPU of
// this machine wanted to run. -1 when unavailable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// hostSnapshot is the start of a run's host diagnostics.
type hostSnapshot struct {
	wall   time.Time
	steal  int64
	nivcsw int64
}

func snapshotHost() hostSnapshot {
	return hostSnapshot{wall: time.Now(), steal: stealTicks(), nivcsw: involuntarySwitches()}
}

// diagnostics reports how the host behaved during the run. None of it
// is gated: it explains a noisy figure rather than being one.
func (h hostSnapshot) diagnostics() map[string]any {
	steal := int64(-1)
	if s := stealTicks(); s >= 0 && h.steal >= 0 {
		steal = s - h.steal
	}
	return map[string]any{
		"wall_s":                 time.Since(h.wall).Seconds(),
		"steal_ticks":            steal,
		"involuntary_ctx_switch": involuntarySwitches() - h.nivcsw,
		"num_cpu":                runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"go_version":             runtime.Version(),
	}
}

// heapAfterGC collects garbage and returns the live heap in bytes.
// Callers keep the structures they measure reachable across the call.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gcSnapshot holds the runtime/metrics counters a traced region is
// differenced over.
type gcSnapshot struct {
	allocBytes uint64
	cycles     uint64
	gcCPU      float64
	busyCPU    float64
}

var gcSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() gcSnapshot {
	samples := make([]metrics.Sample, len(gcSampleNames))
	for i, name := range gcSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	return gcSnapshot{
		allocBytes: u(0),
		cycles:     u(1),
		gcCPU:      f(2),
		// The runtime's CPU classes are estimates comparable only with
		// each other; busy time is total minus idle.
		busyCPU: f(3) - f(4),
	}
}

// gcDelta is what the runtime did between two snapshots.
type gcDelta struct {
	allocBytes uint64
	cycles     uint64
	cpuShare   float64
}

func (s gcSnapshot) since(prev gcSnapshot) gcDelta {
	d := gcDelta{allocBytes: s.allocBytes - prev.allocBytes, cycles: s.cycles - prev.cycles}
	if busy := s.busyCPU - prev.busyCPU; busy > 0 {
		d.cpuShare = (s.gcCPU - prev.gcCPU) / busy
	}
	return d
}
