package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"cloudfog/internal/core"
	simload "cloudfog/internal/workload"
)

// simShape is one simulator deployment and how long each Run lasts.
type simShape struct {
	config func(seed uint64) core.Config
	// cycles and warmup are Run's arguments: simulated days, and how many
	// of them are excluded from measurement (-1 for none).
	cycles, warmup int
	// subSeeds is how many deployments a run cycles through.
	subSeeds int
}

// peerSimShape is the paper's PeerSim deployment: 10k players, CloudFog/A
// (all four strategies), everyone online all day, default worker pool.
var peerSimShape = simShape{
	config: func(seed uint64) core.Config {
		cfg := core.PeerSim()
		cfg.AlwaysOn = true
		cfg.Strategies = core.AllStrategies()
		cfg.Seed = seed
		return cfg
	},
	cycles: 2, warmup: 1, subSeeds: 8,
}

// cloud100kShape is the plain cloud-gaming model at 100k players: no fog,
// so the fog strategies are bypassed and every tick evaluates cloud
// streams and social partners over a working set larger than the caches.
var cloud100kShape = simShape{
	config: func(seed uint64) core.Config {
		cfg := core.PeerSim()
		cfg.AlwaysOn = true
		cfg.Mode = core.ModeCloud
		cfg.Players = 100_000
		cfg.SupernodeCandidates = 1 // no fog is built in cloud mode
		cfg.Seed = seed
		return cfg
	},
	cycles: 1, warmup: -1, subSeeds: 2,
}

// simOutcome is what the correctness gate compares: the state digest and
// every field of the metrics snapshot, formatted to round-trip exactly.
type simOutcome struct {
	Digest   uint64            `json:"digest"`
	Snapshot map[string]string `json:"snapshot"`
}

func outcomeOf(sys *core.System) simOutcome {
	o := simOutcome{Digest: sys.StateDigest(), Snapshot: map[string]string{}}
	v := reflect.ValueOf(sys.Metrics().Snapshot())
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var s string
		switch f.Kind() {
		case reflect.Float64:
			s = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		case reflect.Int, reflect.Int64:
			s = strconv.FormatInt(f.Int(), 10)
		default:
			s = fmt.Sprint(f.Interface())
		}
		o.Snapshot[v.Type().Field(i).Name] = s
	}
	return o
}

// diff describes how o differs from want, or returns "".
func (o simOutcome) diff(want simOutcome) string {
	if o.Digest != want.Digest {
		return fmt.Sprintf("StateDigest %#x, want %#x", o.Digest, want.Digest)
	}
	for k, w := range want.Snapshot {
		if g, ok := o.Snapshot[k]; !ok || g != w {
			return fmt.Sprintf("Snapshot.%s = %s, want %s", k, g, w)
		}
	}
	for k, g := range o.Snapshot {
		if _, ok := want.Snapshot[k]; !ok {
			return fmt.Sprintf("Snapshot.%s = %s has no reference", k, g)
		}
	}
	return ""
}

// referenceJSON holds the default seed's outcome per simulator workload.
//
//go:embed reference.json
var referenceJSON []byte

const referencePath = "cfbench/reference.json"

func references() (map[string]simOutcome, error) {
	refs := map[string]simOutcome{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// writeReference stores o as the default-seed reference of workload name.
func writeReference(name string, o simOutcome) error {
	refs, err := references()
	if err != nil {
		return err
	}
	refs[name] = o
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(b, '\n'), 0o644)
}

// subSeed is the seed of the k-th deployment a run cycles through. A run
// averages over simShape.subSeeds deployments derived from the workload
// seed (the first is the seed itself), so one input's quirks do not set
// the figure, and every run of a seed uses the same inputs.
func subSeed(seed uint64, k int) uint64 { return seed + uint64(k)*1_000_003 }

// roundSet is what the rounds of one sub-seed measured.
type roundSet struct {
	rates, cpuPerTick []float64
	first             *simOutcome
}

func runSim(rc *runConfig, w *workload) (*result, error) {
	sh := w.sim
	res := newResult(w, rc.seed, rc.traced)
	var spans *spanLog
	start := time.Now()
	if rc.traced {
		spans = newSpanLog(start)
	}
	prof, err := startProfile(rc.traced)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntimeCounters()

	deadline := start.Add(rc.duration())
	players := sh.config(rc.seed).Players
	ticksPerRun := float64(players) * float64(simload.SubcyclesPerCycle) * float64(sh.cycles)
	var (
		setups, walls   []float64
		sets            = make([]roundSet, sh.subSeeds)
		runCPU, runWall time.Duration
		runRT           runtimeCounters
		heapPeak        uint64
		rounds          int
	)
	// Every deployment runs at least once and the first at least twice,
	// so each run checks that outcomes repeat.
	for i := 0; i <= sh.subSeeds || time.Now().Before(deadline); i++ {
		k := i % sh.subSeeds
		res.attempted++
		t0, b0 := time.Now(), cpuTime()
		sys, err := core.NewSystem(sh.config(subSeed(rc.seed, k)))
		t1, b1 := time.Now(), cpuTime()
		if err != nil {
			res.fail("round %d: NewSystem: %v", i, err)
			break
		}
		heapPeak = max(heapPeak, liveHeapAfterGC())
		r0, c0 := readRuntimeCounters(), cpuTime()
		tr := time.Now()
		sys.Run(sh.cycles, sh.warmup)
		t2 := time.Now()
		c1, r1 := cpuTime(), readRuntimeCounters()
		out := outcomeOf(sys)
		heapPeak = max(heapPeak, liveHeapAfterGC())
		rounds++
		it := spans.add("sim.round", t0, time.Now(), 0, 0)
		spans.add("core.NewSystem", t0, t1, it, 0)
		spans.add("core.Run", tr, t2, it, 0)

		setups = append(setups, (b1 - b0).Seconds())
		walls = append(walls, t1.Sub(t0).Seconds())
		set := &sets[k]
		set.rates = append(set.rates, ticksPerRun/t2.Sub(tr).Seconds())
		set.cpuPerTick = append(set.cpuPerTick, float64((c1-c0).Nanoseconds())/1e3/ticksPerRun)
		runCPU += c1 - c0
		runWall += t2.Sub(tr)
		runRT = runRT.add(r1.sub(r0))
		if set.first == nil {
			set.first = &out
		} else if d := out.diff(*set.first); d != "" {
			res.fail("round %d repeats seed %d but differs from its first round: %s", i, subSeed(rc.seed, k), d)
		}
	}
	elapsed := time.Since(start)
	rt := readRuntimeCounters().sub(rt0)
	samples, err := prof.stop()
	if err != nil {
		return nil, err
	}
	if sets[0].first != nil {
		if err := checkReference(rc, w, res, *sets[0].first); err != nil {
			return nil, err
		}
	}
	res.infof("%d NewSystem+Run rounds over %d seeds, %d players × %d days (%.0f player-subcycles each), in %.1fs",
		rounds, sh.subSeeds, players, sh.cycles, ticksPerRun, elapsed.Seconds())
	if rounds <= sh.subSeeds {
		return res, nil
	}
	// Each figure is the mean over sub-seeds of that seed's median round.
	var rate, cpu float64
	for k, set := range sets {
		rate += median(set.rates) / float64(len(sets))
		cpu += median(set.cpuPerTick) / float64(len(sets))
		res.infof("deployment seed %d: player-subcycles/s %.0f, cpu us/player-subcycle %.4f",
			subSeed(rc.seed, k), set.rates, set.cpuPerTick)
	}
	res.set("setup_s", median(setups))
	res.set("setup_wall_s", median(walls))
	res.set("heap_peak_mb", float64(heapPeak)/1e6)
	res.set("sim_playerticks_per_s", rate)
	res.set("cpu_us_per_work", cpu)
	res.set("runtime.gc_cycles", float64(rt.gcCycles)/elapsed.Seconds())
	if !rc.traced {
		return res, nil
	}

	ticks := ticksPerRun * float64(rounds)
	res.set("core.cpu_util", runCPU.Seconds()/(runWall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	res.set("core.allocs_pt", float64(runRT.allocObjs)/ticks)
	res.set("core.alloc_bytes_pt", float64(runRT.allocBytes)/ticks)
	res.set("runtime.gc_ns_pt", runRT.gcCPU.Seconds()*1e9/ticks)
	modules := bucketize(samples, moduleBucket)
	phases := bucketize(samples, func(st []string) string { return phaseBucket(st, simPhases) })
	// Per-tick self time counts only samples outside NewSystem, so
	// construction shows in the build buckets and nowhere else.
	var tickSamples []cpuSample
	for _, s := range samples {
		if !underBuild(s.stack) {
			tickSamples = append(tickSamples, s)
		}
	}
	tickModules := bucketize(tickSamples, moduleBucket)
	perTick := func(ns int64) float64 { return float64(ns) / ticks }
	for _, m := range []string{"cloudinfra", "social", "rng", "stats", "netmodel",
		"fog", "selection", "adaptation", "reputation", "streaming", "assignment"} {
		res.set(m+".self_ns_pt", perTick(tickModules[m]))
	}
	for _, p := range []string{"eval_compute", "eval_apply", "join_leave", "provision", "assignment", "tick_other"} {
		res.set("core."+p+"_ns_pt", perTick(phases["core."+p]))
	}
	for _, b := range []string{"social.build", "rng.build", "core.build_other"} {
		res.set(b+"_s", float64(phases[b])/1e9/float64(rounds))
	}
	reportViews(res, modules, phases)
	return res, writeTrace(rc, w, spans, prof)
}

// checkReference compares the first outcome with the stored default-seed
// reference, or records it when the run was asked to.
func checkReference(rc *runConfig, w *workload, res *result, got simOutcome) error {
	if rc.seed != defaultSeed {
		res.infof("seed %d is not the default: outcome checked for repeatability only", rc.seed)
		return nil
	}
	if rc.updateReference {
		res.infof("reference for %s written to %s", w.name, referencePath)
		return writeReference(w.name, got)
	}
	refs, err := references()
	if err != nil {
		return err
	}
	want, ok := refs[w.name]
	res.attempted++
	switch {
	case !ok:
		res.fail("no stored reference for %s (run with -update-reference)", w.name)
	case got.diff(want) != "":
		res.fail("default seed differs from the stored reference: %s", got.diff(want))
	default:
		res.infof("default-seed digest %#x and all %d snapshot fields match the stored reference", got.Digest, len(got.Snapshot))
	}
	return nil
}

// reportViews adds both CPU views to the report and checks that each sums
// to the profiled total.
func reportViews(res *result, views ...cpuView) {
	for i, v := range views {
		name := [...]string{"module", "phase"}[i]
		res.infof("cpu %s view: total %.1fms%s", name, float64(v.total())/1e6, v.describe())
	}
	if len(views) == 2 && views[0].total() != views[1].total() {
		res.violate("cpu views disagree: module view %d ns, phase view %d ns", views[0].total(), views[1].total())
	}
}
