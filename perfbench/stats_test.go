package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	ramp := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(n - i) // descending: quantile must not depend on input order
		}
		return sortedCopy(xs)
	}
	cases := []struct {
		n    int
		q    float64
		want int64
	}{
		{100, 0.50, 50},
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{100, 0.07, 7}, // 0.07*100 rounds above 7 in float64
		{1000, 0.50, 500},
		{1001, 0.50, 501},
		{10, 1.0, 10},
		{10, 0.0, 1},
		{1, 0.99, 1},
	}
	for _, c := range cases {
		if got := quantile(ramp(c.n), c.q); got != c.want {
			t.Errorf("quantile(1..%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileIsASample(t *testing.T) {
	xs := sortedCopy([]int64{7, 1000, 3, 3, 42})
	for _, q := range []float64{0.1, 0.5, 0.75, 0.99} {
		got := quantile(xs, q)
		found := false
		for _, x := range xs {
			found = found || x == got
		}
		if !found {
			t.Errorf("quantile(%v) = %d is not a sample", q, got)
		}
	}
	if got := quantile(xs, 0.5); got != 7 {
		t.Errorf("median of {3,3,7,42,1000} = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// A sharded fan-out: two round trips in flight at once count once.
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		// Children are clipped to the parent's interval.
		{"overhanging", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{150, 160}}, 100},
		{"unsorted", []interval{{60, 70}, {20, 50}, {10, 30}, {90, 120}}, 40},
		{"covering", []interval{{-5, 200}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	q, s, ok := parseSpanHeader(formatSpanHeader(17, 4242))
	if !ok || q != 17 || s != 4242 {
		t.Fatalf("round trip = (%d, %d, %v)", q, s, ok)
	}
	for _, bad := range []string{"", "17", "a.b", "1.", ".2"} {
		if _, _, ok := parseSpanHeader(bad); ok {
			t.Errorf("parseSpanHeader(%q) accepted", bad)
		}
	}
}
