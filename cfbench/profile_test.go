package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestCPUProfileViewsSumToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in a 300ms busy profile")
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if moduleOf(fn) == bucketBench {
				found = true
			}
		}
	}
	if !found {
		t.Error("the busy loop's own frames are not attributed to the bench module")
	}
	for _, rules := range [][]phaseRule{simPhases, livePhases} {
		mod := bucketize(samples, moduleBucket)
		ph := bucketize(samples, func(st []string) string { return phaseBucket(st, rules) })
		for name, v := range map[string]cpuView{"module": mod, "phase": ph} {
			if v.total() != total {
				t.Errorf("%s view sums to %d ns, profile total %d ns", name, v.total(), total)
			}
			if _, ok := v[bucketOther]; !ok {
				t.Errorf("%s view has no %q bucket", name, bucketOther)
			}
		}
	}
}

func TestBuckets(t *testing.T) {
	const vw = modulePrefix + "virtualworld.(*Replica).Snapshot"
	for _, c := range []struct {
		stack  []string
		module string
		live   string
		sim    string
	}{
		{[]string{"runtime.memmove", vw, modulePrefix + "fognet.runVideoSession"},
			"virtualworld", "virtualworld.snapshot", bucketOther},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
			bucketGC, bucketOther, bucketOther},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", modulePrefix + "fognet.(*snWriter).run"},
			bucketSys, bucketOther, bucketOther},
		{[]string{"math.Pow", modulePrefix + "rng.(*Rand).Zipf", newSystemFn},
			"rng", bucketOther, "rng.build"},
		{[]string{modulePrefix + "social.Generate", newSystemFn},
			"social", bucketOther, "social.build"},
		{[]string{"runtime.mapaccess1_fast64", modulePrefix + "cloudinfra.(*Cloud).SameServer",
			coreSys + "interactionCommMs", coreSys + "computeEval", coreSys + "evalPhase.func1"},
			"cloudinfra", bucketOther, "core.eval_compute"},
		{[]string{"runtime.schedule", "runtime.mstart"}, bucketOther, bucketOther, bucketOther},
	} {
		if got := moduleBucket(c.stack); got != c.module {
			t.Errorf("moduleBucket(%v) = %q, want %q", c.stack, got, c.module)
		}
		if got := phaseBucket(c.stack, livePhases); got != c.live {
			t.Errorf("live phase(%v) = %q, want %q", c.stack, got, c.live)
		}
		if got := phaseBucket(c.stack, simPhases); got != c.sim {
			t.Errorf("sim phase(%v) = %q, want %q", c.stack, got, c.sim)
		}
	}
}
