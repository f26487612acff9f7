package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the smallest number of samples a reported percentile must
// have beyond it; a higher percentile over fewer samples is one outlier.
const minTail = 10

// tailLevels are the percentiles a timing may be reported at, lowest
// first.
var tailLevels = []float64{90, 99, 99.9}

// tailPercentile returns the highest of tailLevels that has at least
// minTail of n samples beyond it, and false when even the lowest has not.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= minTail-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of sorted values:
// the smallest value at or above which lies p percent of the samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of values (the mean of the middle pair for an
// even count) without reordering the caller's slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// dist summarizes a timing the way the benchmark reports every one: the
// median, the highest percentile with at least minTail samples beyond it,
// and the sample count.
type dist struct {
	n      int
	p50    float64
	tailP  float64 // 0 when no percentile qualifies
	tail   float64
	sorted []float64
}

func newDist(values []float64) dist {
	s := sortedCopy(values)
	d := dist{n: len(s), sorted: s, p50: percentile(s, 50)}
	if p, ok := tailPercentile(len(s)); ok {
		d.tailP, d.tail = p, percentile(s, p)
	}
	return d
}

// at returns the p-th percentile and whether the sample supports it.
func (d dist) at(p float64) (float64, bool) {
	if d.n == 0 {
		return math.NaN(), false
	}
	if p > 50 && (d.tailP == 0 || p > d.tailP) {
		return percentile(d.sorted, p), false
	}
	return percentile(d.sorted, p), true
}

func (d dist) String() string {
	if d.n == 0 {
		return "n=0"
	}
	if d.tailP == 0 {
		return fmt.Sprintf("p50=%.3f n=%d (no percentile has %d samples beyond it)", d.p50, d.n, minTail)
	}
	return fmt.Sprintf("p50=%.3f p%g=%.3f n=%d", d.p50, d.tailP, d.tail, d.n)
}
