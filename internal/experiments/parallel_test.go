package experiments

import (
	"reflect"
	"testing"
)

// TestFigureOutputsParallelEquivalence is the figure-level half of the
// parallel determinism contract (core/parallel.go): every plotted number a
// figure emits must be bit-identical between a pool of one worker
// (Workers = 1, the calling goroutine alone) and multi-goroutine pools.
// The core equivalence tests pin snapshots and state digests; this pins
// what actually leaves the repo — the figure series.
func TestFigureOutputsParallelEquivalence(t *testing.T) {
	figures := map[string]func(Options) (*Figure, error){
		"fig6":  Fig6,  // system comparison (all three modes)
		"fig10": Fig10, // reputation strategy sweep
		"fig13": Fig13, // provisioning under churn
		"fig4a": Fig4a, // supernode coverage
	}
	for name, fig := range figures {
		t.Run(name, func(t *testing.T) {
			want, err := fig(Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 4, 8} {
				got, err := fig(Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("figure %s diverged between 1 and %d workers\n  1: %+v\n %d: %+v",
						name, workers, want, workers, got)
				}
			}
		})
	}
}
