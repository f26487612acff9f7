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

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the machine's cumulative stolen and total CPU ticks
// from /proc/stat, or zeros where it is unavailable. Steal is time a
// virtual CPU was ready to run while the hypervisor ran something else;
// it stretches every wall-clock figure of a run.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// Runtime metric names the benchmark reads.
const (
	mHeapLive   = "/gc/heap/live:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

// runtimeCounters reads the allocation and GC counters. gcCPU is the
// runtime's estimate of CPU spent on garbage collection.
type runtimeCounters struct {
	allocObjs, allocBytes, gcCycles uint64
	gcCPU                           time.Duration
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{{Name: mAllocObjs}, {Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(),
		time.Duration(s[3].Value.Float64() * 1e9)}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocObjs - o.allocObjs, c.allocBytes - o.allocBytes,
		c.gcCycles - o.gcCycles, c.gcCPU - o.gcCPU}
}

func (c runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocObjs + o.allocObjs, c.allocBytes + o.allocBytes,
		c.gcCycles + o.gcCycles, c.gcCPU + o.gcCPU}
}

// liveHeapAfterGC runs full collections and returns the live heap the
// last one found: the program's reachable memory at this point,
// independent of when the collector would have run on its own. It
// collects twice because a sync.Pool keeps its cached objects alive for
// one extra cycle, and how many are cached depends on timing.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
