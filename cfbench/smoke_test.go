package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cloudfog/internal/core"
)

// tiny returns a copy of the named workload scaled down for a test.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := *lookup(name)
	switch name {
	case "sim-peersim", "sim-cloud-100k":
		full := w.sim.config
		w.sim.config = func(seed uint64) core.Config {
			cfg := full(seed)
			cfg.Players = 1000
			if cfg.Mode == core.ModeCloudFog {
				cfg.Supernodes = 60
			}
			return cfg
		}
	case "live-bigworld":
		w.live.npcs = 500
	}
	return &w
}

// smoke runs w and checks it passes its correctness gate and writes a
// well-formed result with every metric of its mode.
func smoke(t *testing.T, w *workload, seed uint64, seconds float64, traced bool) *result {
	t.Helper()
	rc := &runConfig{seed: seed, seconds: seconds, traced: traced, traceDir: t.TempDir()}
	res, err := w.run(rc, w)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.write(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !res.correct() {
		t.Fatalf("%s failed its correctness gate: %v\n%s", w.name, res.violations, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	want := gateMetrics
	if traced {
		want = layerMetrics
	}
	if len(got.Metrics) != len(want) {
		t.Fatalf("result has %d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, d := range want {
		if _, ok := got.Metrics[d.name]; !ok {
			t.Errorf("result lacks %s", d.name)
		}
		if v, why := res.value(d); !traced && (why != "" || v <= 0) {
			t.Errorf("gate metric %s = %v %s, want a positive measurement", d.name, v, why)
		}
	}
	return res
}

func TestSmokeSimPeerSim(t *testing.T) { smoke(t, tiny(t, "sim-peersim"), 3, 0.1, false) }

func TestSmokeSimCloud100k(t *testing.T) { smoke(t, tiny(t, "sim-cloud-100k"), 3, 0.1, true) }

func TestSmokeLiveStream(t *testing.T) { smoke(t, tiny(t, "live-stream"), 1, 0.5, false) }

func TestSmokeLiveBigWorld(t *testing.T) {
	res := smoke(t, tiny(t, "live-bigworld"), 2, 1, true)
	if res.attempted < 3 {
		t.Fatalf("only %d sessions in a second of arrivals", res.attempted)
	}
}

// TestSimReferenceDefaultSeed runs the full-size PeerSim deployment on the
// default seed and checks it against the stored reference.
func TestSimReferenceDefaultSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulator run")
	}
	res := smoke(t, lookup("sim-peersim"), defaultSeed, 0.1, false)
	if res.attempted <= lookup("sim-peersim").sim.subSeeds+1 {
		t.Fatal("the reference comparison was not made")
	}
}

// TestSimRepeatabilityGate checks that an outcome that differs from the
// first iteration's is reported as a failure.
func TestSimRepeatabilityGate(t *testing.T) {
	a := simOutcome{Digest: 1, Snapshot: map[string]string{"X": "1"}}
	for _, b := range []simOutcome{
		{Digest: 2, Snapshot: map[string]string{"X": "1"}},
		{Digest: 1, Snapshot: map[string]string{"X": "1.0000000000000002"}},
		{Digest: 1, Snapshot: map[string]string{"X": "1", "Y": "0"}},
	} {
		if b.diff(a) == "" {
			t.Errorf("%+v does not differ from %+v", b, a)
		}
	}
	if a.diff(a) != "" {
		t.Error("an outcome differs from itself")
	}
}
