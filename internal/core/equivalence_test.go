package core

import (
	"runtime"
	"testing"

	"cloudfog/internal/workload"
)

// The parallel determinism contract (parallel.go): for any worker count,
// a seeded run's outputs — metrics snapshot, quantiles, and the full state
// digest — are bit-identical to a pool of one worker (Workers = 1, the
// calling goroutine alone). These tests are the enforcement; they are
// what lets `-parallel` default to GOMAXPROCS.

// equivalenceConfigs covers every code path whose interleaving could
// plausibly diverge under concurrency: fog selection with all strategies
// (co-play recording, adaptation, provisioning), the plain cloud and CDN
// baselines, churn-mode arrivals, and supernode failure injection.
func equivalenceConfigs() map[string]Config {
	cloudFog := quickConfig(ModeCloudFog)
	cloudFog.Strategies = AllStrategies()

	alwaysOn := quickConfig(ModeCloudFog)
	alwaysOn.Strategies = AllStrategies()
	alwaysOn.AlwaysOn = true

	churn := quickConfig(ModeCloudFog)
	churn.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 2}

	failures := quickConfig(ModeCloudFog)
	failures.FailSupernodesPerCycle = 2

	return map[string]Config{
		"cloudfog-advanced": cloudFog,
		"cloudfog-alwayson": alwaysOn,
		"cloud":             quickConfig(ModeCloud),
		"cdn":               quickConfig(ModeCDN),
		"churn":             churn,
		"failures":          failures,
	}
}

func runWithWorkers(t *testing.T, cfg Config, workers, cycles, warmup int) (Snapshot, uint64) {
	t.Helper()
	cfg.Workers = workers
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(cycles, warmup)
	return m.Snapshot(), sys.StateDigest()
}

func TestParallelEquivalence(t *testing.T) {
	const cycles, warmup = 3, 1
	for name, cfg := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			wantSnap, wantDigest := runWithWorkers(t, cfg, 1, cycles, warmup)
			for _, workers := range []int{0, 2, 4, 8} {
				snap, digest := runWithWorkers(t, cfg, workers, cycles, warmup)
				if snap != wantSnap {
					t.Errorf("workers=%d: snapshot diverged from workers=1\n got %+v\nwant %+v",
						workers, snap, wantSnap)
				}
				if digest != wantDigest {
					t.Errorf("workers=%d: state digest %x, workers=1 %x", workers, digest, wantDigest)
				}
			}
		})
	}
}

// TestParallelEquivalenceHistogram pins the quantile path specifically:
// per-worker scratch histograms merged in scheduler-dependent order must
// reproduce the one-worker histogram's exact bucket counts.
func TestParallelEquivalenceHistogram(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Strategies = AllStrategies()
	cfg.AlwaysOn = true

	build := func(workers int) *Metrics {
		cfg.Workers = workers
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(3, 1)
	}
	seq := build(1)
	par := build(6)
	if seq.ResponseLatencyHist == nil || par.ResponseLatencyHist == nil {
		t.Fatal("response latency histogram not collected")
	}
	if seq.ResponseLatencyHist.N() == 0 {
		t.Fatal("histogram empty")
	}
	if got, want := par.ResponseLatencyHist.N(), seq.ResponseLatencyHist.N(); got != want {
		t.Fatalf("histogram N: 6 workers %d, 1 worker %d", got, want)
	}
	for b := 0; b < seq.ResponseLatencyHist.NumBuckets(); b++ {
		if got, want := par.ResponseLatencyHist.Bucket(b), seq.ResponseLatencyHist.Bucket(b); got != want {
			t.Fatalf("bucket %d: 6 workers %d, 1 worker %d", b, got, want)
		}
	}
	for _, p := range []float64{50, 95, 99} {
		if got, want := par.ResponseLatencyHist.Percentile(p), seq.ResponseLatencyHist.Percentile(p); got != want {
			t.Fatalf("P%v: 6 workers %v, 1 worker %v", p, got, want)
		}
	}
}

// TestWorkersConfigResolution documents the -parallel knob mapping: 0 is
// GOMAXPROCS, a positive value is taken literally, and a negative value is
// a configuration error.
func TestWorkersConfigResolution(t *testing.T) {
	cfg := quickConfig(ModeCloud)
	for _, tc := range []struct{ workers, want int }{
		{workers: 0, want: runtime.GOMAXPROCS(0)},
		{workers: 1, want: 1},
		{workers: 3, want: 3},
	} {
		cfg.Workers = tc.workers
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.workerCount(); got != tc.want {
			t.Errorf("Workers=%d resolved to %d workers, want %d", tc.workers, got, tc.want)
		}
	}
	for _, workers := range []int{-1, -8} {
		cfg.Workers = workers
		if _, err := cfg.normalize(); err == nil {
			t.Errorf("normalize accepted Workers=%d", workers)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("NewSystem accepted Workers=%d", workers)
		}
	}
}

// TestPlayerStoreFreeList exercises the dense-index recycling that dynamic
// populations rely on.
func TestPlayerStoreFreeList(t *testing.T) {
	ps := newPlayerStore(4)
	players := make([]*Player, 3)
	for i := range players {
		players[i] = &Player{ID: i}
		if got := ps.alloc(players[i]); got != i {
			t.Fatalf("alloc #%d returned %d", i, got)
		}
	}
	ps.online[1] = true
	ps.release(1)
	if ps.handles[1] != nil || ps.online[1] {
		t.Fatal("release did not clear slot state")
	}
	// The freed index is reused before the store grows.
	p := &Player{ID: 1}
	if got := ps.alloc(p); got != 1 {
		t.Fatalf("alloc after release returned %d, want 1", got)
	}
	if ps.len() != 3 {
		t.Fatalf("store len %d, want 3", ps.len())
	}
	if ps.handles[1] != p || p.st != ps {
		t.Fatal("realloc did not rewire handle")
	}
	// Fresh slots keep growing past the free-list.
	if got := ps.alloc(&Player{ID: 3}); got != 3 {
		t.Fatalf("growth alloc returned %d, want 3", got)
	}
}
