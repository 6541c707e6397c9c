package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB. Each
// run of the benchmark is one process running one workload, so the peak is
// that workload's.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		if fields := strings.Fields(line); len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostSample is a reading of the host-side counters the benchmark
// attributes to layers; differences of two readings cover an interval.
type hostSample struct {
	cpuS       float64 // user+system CPU seconds of the process
	gcCPUS     float64
	totalCPUS  float64 // CPU seconds available to the Go runtime
	mutexWaitS float64
	allocBytes uint64
	mallocs    uint64
	sched      *metrics.Float64Histogram
}

var hostMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readHost() hostSample {
	var h hostSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	samples := make([]metrics.Sample, len(hostMetricNames))
	for i, name := range hostMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPUS = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		h.totalCPUS = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		h.mutexWaitS = samples[2].Value.Float64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		src := samples[3].Value.Float64Histogram()
		h.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), src.Counts...),
			Buckets: append([]float64(nil), src.Buckets...),
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.allocBytes, h.mallocs = ms.TotalAlloc, ms.Mallocs
	return h
}

// hostDelta is what the host spent between two samples.
type hostDelta struct {
	cpuS, gcCPUFrac, mutexWaitS float64
	allocBytes, mallocs         float64
	schedP99Us                  float64
}

func (h hostSample) since(start hostSample) hostDelta {
	d := hostDelta{
		cpuS:       h.cpuS - start.cpuS,
		mutexWaitS: h.mutexWaitS - start.mutexWaitS,
		allocBytes: float64(h.allocBytes - start.allocBytes),
		mallocs:    float64(h.mallocs - start.mallocs),
	}
	if total := h.totalCPUS - start.totalCPUS; total > 0 {
		d.gcCPUFrac = (h.gcCPUS - start.gcCPUS) / total
	}
	if h.sched != nil && start.sched != nil && len(h.sched.Counts) == len(start.sched.Counts) {
		d.schedP99Us = histogramQuantile(h.sched, start.sched, 0.99) * 1e6
	}
	return d
}

// histogramQuantile returns the upper edge of the bucket holding the q-th
// quantile of the samples added between two readings of one histogram.
func histogramQuantile(now, before *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range now.Counts {
		total += now.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range now.Counts {
		seen += now.Counts[i] - before.Counts[i]
		if seen >= want {
			edge := now.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = now.Buckets[i]
			}
			return edge
		}
	}
	return now.Buckets[len(now.Buckets)-1]
}
