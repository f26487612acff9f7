package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	d := newDist(v)
	if d.p50 != 50 || d.tailP != 90 || d.tail != 90 || d.n != 100 {
		t.Fatalf("dist = %+v, want p50 50, p90 90, n 100", d)
	}
	if got, ok := d.at(99); ok || got != 99 {
		t.Fatalf("at(99) = %v, %v; want 99 and unsupported", got, ok)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if v[0] != 100 {
		t.Fatal("median or newDist reordered its input")
	}
}
