package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, the metric
// catalog, the workload table, and spec.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, catalog %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, gateMetrics)
	check("per_layer", bench.PerLayer, layerMetrics)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, table %q", i, bench.Workloads[i].Name, w.name)
		}
	}

	var spec struct {
		DefaultSeed uint64 `json:"default_seed"`
		HeldOutSeed uint64 `json:"held_out_seed"`
		Workloads   map[string]struct {
			Why, Arrival        string
			Exercises, Bypasses []string
		}
		Predictions []struct{ Layer string }
	}
	specJSON, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.DefaultSeed != defaultSeed || spec.HeldOutSeed != heldOutSeed {
		t.Errorf("spec.json seeds %d/%d, code %d/%d", spec.DefaultSeed, spec.HeldOutSeed, defaultSeed, heldOutSeed)
	}
	for _, w := range workloads {
		ws, ok := spec.Workloads[w.name]
		if !ok || ws.Why == "" || ws.Arrival == "" || len(ws.Exercises) == 0 || len(ws.Bypasses) == 0 {
			t.Errorf("spec.json: workload %s needs why, arrival, exercises and bypasses", w.name)
		}
	}
	predicted := map[string]bool{}
	for _, p := range spec.Predictions {
		predicted[p.Layer] = true
	}
	for _, d := range layerMetrics {
		if !predicted[d.name] {
			t.Errorf("spec.json: no prediction for per-layer metric %s", d.name)
		}
	}
}
