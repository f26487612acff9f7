package main

import (
	"testing"
)

func TestRegistryCoversAllOrder(t *testing.T) {
	reg := registry()
	for _, name := range allOrder {
		if _, ok := reg[name]; !ok {
			t.Errorf("allOrder entry %q missing from registry", name)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingExperiment(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -exp accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig999"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadScaleAndProfile(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-scale", "huge"}); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-exp", "table2", "-profile", "mars"}); err == nil {
		t.Error("bad profile accepted")
	}
}

func TestRunNegativeParallel(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-parallel", "-1"}); err == nil {
		t.Error("negative -parallel accepted")
	}
}

func TestRunCheapExperiments(t *testing.T) {
	// table2 and fig16a/b are analytic: they must run instantly.
	for _, exp := range []string{"table2", "fig16a", "fig16b"} {
		if err := run([]string{"-exp", exp}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunCoverageExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage sweep takes a few seconds")
	}
	if err := run([]string{"-exp", "fig4a", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOutputFormats(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-o", "json"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-exp", "table2", "-o", "csv"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-exp", "table2", "-o", "yaml"}); err == nil {
		t.Error("unknown output format accepted")
	}
}
