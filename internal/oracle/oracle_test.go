package oracle

import (
	"fmt"
	"testing"
	"testing/quick"

	"lca/internal/graph"
	"lca/internal/rnd"
)

func testGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	return b.Build()
}

func TestGraphOracleMirrorsGraph(t *testing.T) {
	g := testGraph()
	o := New(g)
	if o.N() != g.N() {
		t.Fatalf("N = %d, want %d", o.N(), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if o.Degree(v) != g.Degree(v) {
			t.Errorf("Degree(%d) mismatch", v)
		}
		for i := 0; i <= g.Degree(v); i++ { // one past the end too
			if o.Neighbor(v, i) != g.Neighbor(v, i) {
				t.Errorf("Neighbor(%d,%d) mismatch", v, i)
			}
		}
		for w := 0; w < g.N(); w++ {
			if o.Adjacency(v, w) != g.AdjacencyIndex(v, w) {
				t.Errorf("Adjacency(%d,%d) mismatch", v, w)
			}
		}
	}
}

func TestCounterCounts(t *testing.T) {
	c := NewCounter(New(testGraph()))
	c.Degree(0)
	c.Degree(1)
	c.Neighbor(0, 0)
	c.Adjacency(0, 1)
	c.Adjacency(0, 5)
	s := c.Stats()
	if s.Degree != 2 || s.Neighbor != 1 || s.Adjacency != 2 || s.Total() != 5 {
		t.Fatalf("stats = %+v", s)
	}
	c.N() // must not count
	if c.Stats().Total() != 5 {
		t.Fatal("N() was counted as a probe")
	}
	c.Reset()
	if c.Stats().Total() != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Neighbor: 10, Degree: 5, Adjacency: 3}
	b := Stats{Neighbor: 4, Degree: 2, Adjacency: 1}
	d := a.Sub(b)
	if d != (Stats{Neighbor: 6, Degree: 3, Adjacency: 2}) {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Total() != 11 {
		t.Fatalf("Total = %d", d.Total())
	}
}

// TestStatsAddInvertsSub: Add folds a delta back in exactly, for every
// counter; FetchWidth is a gauge and keeps the later nonzero width.
func TestStatsAddInvertsSub(t *testing.T) {
	f := func(a, b Stats) bool {
		a.FetchWidth, b.FetchWidth = 0, 0
		return a.Add(b).Sub(b) == a && a.Add(b).Add(Stats{}) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := (Stats{FetchWidth: 8}).Add(Stats{FetchWidth: 16}).FetchWidth; got != 16 {
		t.Fatalf("gauge sum kept width %d, want the later 16", got)
	}
	if got := (Stats{FetchWidth: 8}).Add(Stats{}).FetchWidth; got != 8 {
		t.Fatalf("gauge sum with no later width kept %d, want 8", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(New(testGraph()))
	r.Degree(3)
	r.Neighbor(3, 0)
	r.Adjacency(3, 4)
	tr := r.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d", len(tr))
	}
	want := []Record{
		{Kind: KindDegree, A: 3, Answer: 1},
		{Kind: KindNeighbor, A: 3, B: 0, Answer: 4},
		{Kind: KindAdjacency, A: 3, B: 4, Answer: 0},
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Errorf("trace[%d] = %+v, want %+v", i, tr[i], want[i])
		}
	}
	r.Reset()
	if len(r.Trace()) != 0 {
		t.Fatal("Reset did not clear trace")
	}
}

func TestCachingOracleDeduplicates(t *testing.T) {
	inner := NewCounter(New(testGraph()))
	c := NewCaching(inner)
	outer := NewCounter(c)

	for i := 0; i < 5; i++ {
		outer.Degree(0)
		outer.Neighbor(0, 1)
		outer.Adjacency(1, 2)
	}
	if outer.Stats().Total() != 15 {
		t.Fatalf("outer total = %d, want 15", outer.Stats().Total())
	}
	if inner.Stats().Total() != 3 {
		t.Fatalf("inner total = %d, want 3 (memoized)", inner.Stats().Total())
	}
}

func TestCachingOracleNeighborSeedsAdjacency(t *testing.T) {
	inner := NewCounter(New(testGraph()))
	c := NewCaching(inner)
	w := c.Neighbor(0, 0) // learns that w is neighbor 0 of vertex 0
	if got := c.Adjacency(0, w); got != 0 {
		t.Fatalf("Adjacency(0,%d) = %d, want 0", w, got)
	}
	if inner.Stats().Adjacency != 0 {
		t.Fatal("Adjacency should have been answered from the Neighbor cache")
	}
}

func TestCachingOracleCorrectness(t *testing.T) {
	g := gnpLike(80, 0.15, 3)
	plain := New(g)
	cached := NewCaching(New(g))
	err := quick.Check(func(a, b uint8) bool {
		u, v := int(a)%g.N(), int(b)%g.N()
		i := int(b) % (g.Degree(u) + 1)
		return cached.Degree(u) == plain.Degree(u) &&
			cached.Neighbor(u, i) == plain.Neighbor(u, i) &&
			cached.Adjacency(u, v) == plain.Adjacency(u, v)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func gnpLike(n int, p float64, seed rnd.Seed) *graph.Graph {
	prg := rnd.NewPRG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if prg.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}

// TestCachingOracleConcurrent hammers one shared CachingOracle from many
// goroutines with overlapping probes — the shape of parallel batch
// assembly sharing a probe cache. Run under -race (CI does), this is the
// concurrency-safety regression test; answers are also checked against an
// uncached oracle.
func TestCachingOracleConcurrent(t *testing.T) {
	g := gnpLike(120, 0.1, 9)
	plain := New(g)
	c := NewCaching(New(g))
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			prg := rnd.NewPRG(rnd.Seed(w))
			for q := 0; q < 3000; q++ {
				u := prg.Intn(g.N())
				v := prg.Intn(g.N())
				if c.Degree(u) != plain.Degree(u) {
					errc <- fmt.Errorf("Degree(%d) diverged", u)
					return
				}
				i := prg.Intn(g.Degree(u) + 1)
				if c.Neighbor(u, i) != plain.Neighbor(u, i) {
					errc <- fmt.Errorf("Neighbor(%d,%d) diverged", u, i)
					return
				}
				if c.Adjacency(u, v) != plain.Adjacency(u, v) {
					errc <- fmt.Errorf("Adjacency(%d,%d) diverged", u, v)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
