package spanner

import (
	"math"
	"testing"

	"lca/internal/core"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/rnd"
)

// kWorkloads mixes sparse and dense regions so both sides of the
// sparse/dense split are exercised.
func kWorkloads(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"gnp-sparse": gen.Gnp(200, 0.02, 3),
		"gnp-mid":    gen.Gnp(150, 0.08, 5),
		"torus":      gen.Torus(12, 12),
		"clusters":   gen.PlantedClusters(120, 3, 0.3, 0.01, 9),
		"powerlaw":   gen.ChungLu(200, 2.5, 6, 11),
		"barbell":    gen.Barbell(20, 6),
	}
}

// mixedConfig forces a non-degenerate sparse/dense split at test scale
// (the default center probability saturates to 1 for small n, making every
// vertex its own cell).
func mixedConfig() KConfig {
	return KConfig{
		Config:     Config{Memo: true},
		L:          25,
		CenterProb: 0.04,
	}
}

func TestSpannerKConnectivityExact(t *testing.T) {
	// Connectivity preservation is deterministic (Lemma 4.12 plus the
	// unconditional Baswana-Sen stretch): it must hold for every seed.
	for name, g := range kWorkloads(t) {
		for _, k := range []int{1, 2, 3} {
			for seed := rnd.Seed(0); seed < 3; seed++ {
				lca := NewSpannerKConfig(oracle.New(g), k, seed, mixedConfig())
				h, _ := core.BuildSubgraph(g, lca)
				if err := core.VerifySubgraphOf(g, h); err != nil {
					t.Fatalf("%s k=%d seed=%d: %v", name, k, seed, err)
				}
				if err := core.VerifyConnectivityPreserved(g, h); err != nil {
					t.Fatalf("%s k=%d seed=%d: %v", name, k, seed, err)
				}
			}
		}
	}
}

func TestSpannerKStretchBound(t *testing.T) {
	// The O(k^2) stretch: measured max edge stretch must stay within a
	// generous constant times k^2 (the w.h.p. analysis constant).
	for name, g := range kWorkloads(t) {
		for _, k := range []int{2, 3} {
			lca := NewSpannerKConfig(oracle.New(g), k, 7, mixedConfig())
			h, _ := core.BuildSubgraph(g, lca)
			got := core.ExactMaxStretch(g, h)
			if got < 0 {
				t.Fatalf("%s k=%d: disconnection", name, k)
			}
			bound := 8*k*k + 8
			if got > bound {
				t.Errorf("%s k=%d: max stretch %d exceeds %d", name, k, got, bound)
			}
		}
	}
}

func TestSpannerKDefaultsDegenerateButCorrect(t *testing.T) {
	// With default parameters at small n the center probability saturates
	// and every vertex becomes a singleton cell; the spanner must still be
	// connected and low-stretch.
	g := gen.Gnp(120, 0.1, 2)
	lca := NewSpannerKConfig(oracle.New(g), 2, 5, KConfig{Config: Config{Memo: true}})
	h, _ := core.BuildSubgraph(g, lca)
	if err := core.VerifyConnectivityPreserved(g, h); err != nil {
		t.Fatal(err)
	}
}

func TestSpannerKSparseDenseExact(t *testing.T) {
	// The LCA's sparse/dense classification must match the definition:
	// sparse iff no center within distance k.
	g := gen.Gnp(180, 0.03, 13)
	for _, k := range []int{1, 2, 3} {
		lca := NewSpannerKConfig(oracle.New(g), k, 11, mixedConfig())
		sawSparse, sawDense := false, false
		for v := 0; v < g.N(); v++ {
			_, dist := g.BFSWithin(v, k)
			wantSparse := true
			for w := range dist {
				if lca.isCenter(w) {
					wantSparse = false
					break
				}
			}
			st := lca.status(v)
			if st.sparse != wantSparse {
				t.Fatalf("k=%d: status(%d).sparse = %v, want %v", k, v, st.sparse, wantSparse)
			}
			if st.sparse {
				sawSparse = true
			} else {
				sawDense = true
			}
		}
		if !sawSparse || !sawDense {
			t.Logf("k=%d: degenerate split (sparse=%v dense=%v)", k, sawSparse, sawDense)
		}
	}
}

func TestSpannerKVoronoiPathInvariants(t *testing.T) {
	// For every dense vertex: the path is a real path in G ending at the
	// center, has length <= k, and satisfies the suffix property (each
	// path vertex is dense, has the same center, and continues along the
	// same path) — the lemma underpinning cluster rule (c).
	g := gen.Gnp(160, 0.05, 21)
	lca := NewSpannerKConfig(oracle.New(g), 3, 3, mixedConfig())
	for v := 0; v < g.N(); v++ {
		st := lca.status(v)
		if st.sparse {
			continue
		}
		path := st.path
		if len(path) < 1 || path[0] != v || path[len(path)-1] != st.center {
			t.Fatalf("path of %d malformed: %v (center %d)", v, path, st.center)
		}
		if len(path)-1 > lca.k {
			t.Fatalf("path of %d longer than k: %v", v, path)
		}
		if !lca.isCenter(st.center) {
			t.Fatalf("center %d of %d is not a center", st.center, v)
		}
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				t.Fatalf("path of %d uses non-edge (%d,%d)", v, path[i], path[i+1])
			}
		}
		for i, x := range path {
			stx := lca.status(x)
			if stx.sparse || stx.center != st.center {
				t.Fatalf("suffix property: vertex %d on path of %d has center %v", x, v, stx)
			}
			if i+1 < len(path) && lca.nextHop(stx) != path[i+1] {
				t.Fatalf("suffix property: nextHop(%d) = %d, want %d", x, lca.nextHop(stx), path[i+1])
			}
		}
	}
}

func TestSpannerKClusterAgreement(t *testing.T) {
	// Every member of a cluster must compute the identical cluster, and
	// cluster sizes stay within 2L (type (c) groups) with type (a) covering
	// whole light cells.
	g := gen.Gnp(200, 0.04, 17)
	lca := NewSpannerKConfig(oracle.New(g), 2, 9, mixedConfig())
	seen := make(map[clusterKey][]int)
	for v := 0; v < g.N(); v++ {
		st := lca.status(v)
		if st.sparse {
			continue
		}
		ci := lca.clusterOf(v, st)
		if _, ok := ci.memberSet[v]; !ok {
			t.Fatalf("cluster of %d does not contain it: %v", v, ci.members)
		}
		if len(ci.members) > 2*lca.l {
			t.Fatalf("cluster %v has %d members > 2L", ci.key, len(ci.members))
		}
		if prev, ok := seen[ci.key]; ok {
			if !equalInts(prev, ci.members) {
				t.Fatalf("cluster %v computed differently from different members", ci.key)
			}
		} else {
			seen[ci.key] = ci.members
		}
		// All members share the cell.
		for _, m := range ci.members {
			if lca.status(m).center != ci.cell {
				t.Fatalf("cluster %v contains vertex %d from another cell", ci.key, m)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpannerKClustersPartitionCells(t *testing.T) {
	// Within one Voronoi cell, clusters must partition the members.
	g := gen.Gnp(200, 0.05, 23)
	lca := NewSpannerKConfig(oracle.New(g), 2, 2, mixedConfig())
	owner := make(map[int]clusterKey)
	for v := 0; v < g.N(); v++ {
		st := lca.status(v)
		if st.sparse {
			continue
		}
		ci := lca.clusterOf(v, st)
		for _, m := range ci.members {
			if prev, ok := owner[m]; ok && prev != ci.key {
				t.Fatalf("vertex %d owned by clusters %v and %v", m, prev, ci.key)
			}
			owner[m] = ci.key
		}
	}
}

func TestSpannerKLocalBSMatchesGlobal(t *testing.T) {
	// The local Baswana-Sen simulation must reproduce the global run
	// edge-for-edge on G_sparse — the strongest consistency check for the
	// shrinking-horizon logic.
	for _, k := range []int{1, 2, 3, 4} {
		g := gen.Gnp(150, 0.03, rnd.Seed(k))
		lca := NewSpannerKConfig(oracle.New(g), k, 31, mixedConfig())
		// Build G_sparse adjacency globally.
		nbrs := make(map[int][]int)
		order := make([]int, 0, g.N())
		for v := 0; v < g.N(); v++ {
			order = append(order, v)
			nbrs[v] = lca.sparseNeighbors(v)
		}
		global := lca.bs.runGlobal(order, nbrs)
		for _, e := range g.Edges() {
			uSparse := lca.status(e.U).sparse
			vSparse := lca.status(e.V).sparse
			if !uSparse && !vSparse {
				continue // not an E_sparse edge
			}
			local := lca.sparseKeep(e.U, e.V)
			if local != global.Has(e.U, e.V) {
				t.Fatalf("k=%d: local BS disagrees with global on (%d,%d): local=%v", k, e.U, e.V, local)
			}
		}
	}
}

func TestSpannerKPureSparseIsBaswanaSenSpanner(t *testing.T) {
	// With no centers at all, every vertex is sparse, G_sparse = G, and the
	// LCA degenerates to a pure local Baswana-Sen: stretch 2k-1 must hold
	// deterministically.
	for _, k := range []int{2, 3} {
		g := gen.Gnp(130, 0.06, rnd.Seed(10+k))
		cfg := mixedConfig()
		cfg.CenterProb = 1e-18 // no vertex elects itself
		lca := NewSpannerKConfig(oracle.New(g), k, 77, cfg)
		h, _ := core.BuildSubgraph(g, lca)
		rep := core.VerifyStretch(g, h, 2*k-1)
		if rep.Violations > 0 {
			t.Errorf("k=%d: %d edges exceed stretch %d (max %d)", k, rep.Violations, 2*k-1, rep.MaxStretch)
		}
	}
}

func TestSpannerKSameCellEdgesFormTrees(t *testing.T) {
	// H^I restricted to one cell must be a spanning tree of the cell:
	// exactly |cell|-1 edges and connected.
	g := gen.Gnp(200, 0.05, 29)
	lca := NewSpannerKConfig(oracle.New(g), 2, 41, mixedConfig())
	cells := make(map[int][]int)
	for v := 0; v < g.N(); v++ {
		st := lca.status(v)
		if !st.sparse {
			cells[st.center] = append(cells[st.center], v)
		}
	}
	for center, members := range cells {
		inCell := make(map[int]bool, len(members))
		for _, m := range members {
			inCell[m] = true
		}
		kept := 0
		b := graph.NewBuilder(g.N())
		for _, e := range g.Edges() {
			if inCell[e.U] && inCell[e.V] && lca.QueryEdge(e.U, e.V) {
				kept++
				b.AddEdge(e.U, e.V)
			}
		}
		if kept != len(members)-1 {
			t.Fatalf("cell %d: %d intra-cell edges for %d members", center, kept, len(members))
		}
		// Connectivity of the tree: walk from the center.
		h := b.Build()
		reach, _ := h.BFSWithin(center, -1)
		if len(reach) != len(members) {
			t.Fatalf("cell %d: tree spans %d of %d members", center, len(reach), len(members))
		}
	}
}

func TestSpannerKSymmetricRepeatableDeterministic(t *testing.T) {
	g := gen.Gnp(120, 0.06, 37)
	lca := NewSpannerKConfig(oracle.New(g), 2, 19, mixedConfig())
	if e, ok := core.CheckSymmetric(g, lca); !ok {
		t.Fatalf("asymmetric at %v", e)
	}
	if e, ok := core.CheckRepeatable(g, lca); !ok {
		t.Fatalf("not repeatable at %v", e)
	}
	other := NewSpannerKConfig(oracle.New(g), 2, 19, mixedConfig())
	for _, e := range g.Edges() {
		if lca.QueryEdge(e.U, e.V) != other.QueryEdge(e.U, e.V) {
			t.Fatalf("instances disagree on %v", e)
		}
	}
}

func TestSpannerKMemoDoesNotChangeAnswers(t *testing.T) {
	g := gen.Gnp(90, 0.07, 43)
	cfgMemo := mixedConfig()
	cfgPlain := cfgMemo
	cfgPlain.Memo = false
	memo := NewSpannerKConfig(oracle.New(g), 2, 3, cfgMemo)
	plain := NewSpannerKConfig(oracle.New(g), 2, 3, cfgPlain)
	for _, e := range g.Edges() {
		if memo.QueryEdge(e.U, e.V) != plain.QueryEdge(e.U, e.V) {
			t.Fatalf("memoization changed the answer on %v", e)
		}
	}
}

func TestSpannerKSizeShrinksWithK(t *testing.T) {
	// ~O(n^{1+1/k}): larger k must not blow the spanner up; on a dense
	// graph k=3 should be no denser than k=1 keeps everything.
	g := gen.Gnp(150, 0.3, 47)
	sizes := map[int]int{}
	for _, k := range []int{1, 2, 3} {
		lca := NewSpannerKConfig(oracle.New(g), k, 53, mixedConfig())
		h, _ := core.BuildSubgraph(g, lca)
		sizes[k] = h.M()
	}
	t.Logf("G=%d edges; |H| by k: %v", g.M(), sizes)
	if sizes[3] > sizes[1] {
		t.Errorf("k=3 spanner (%d) larger than k=1 (%d)", sizes[3], sizes[1])
	}
}

func TestNewSparseSpanning(t *testing.T) {
	g := gen.PlantedClusters(160, 4, 0.25, 0.01, 59)
	lca := NewSparseSpanning(oracle.New(g), 61)
	// Force memoization for the harness pass.
	lca.memo = true
	lca.statusMemo = make(map[int]*vstatus)
	lca.childrenMemo = make(map[int][]int)
	lca.subtreeMemo = make(map[int]int)
	lca.clusterMemo = make(map[int]*clusterInfo)
	lca.scanMemo = make(map[clusterKey]map[int]cellEdge)
	lca.keepMemo = make(map[[2]int]bool)
	h, _ := core.BuildSubgraph(g, lca)
	if err := core.VerifyConnectivityPreserved(g, h); err != nil {
		t.Fatal(err)
	}
	n := float64(g.N())
	if float64(h.M()) > 6*n*math.Log(n) {
		t.Errorf("sparse spanning graph has %d edges for n=%d", h.M(), g.N())
	}
}

func TestSpannerKRankBlockBits(t *testing.T) {
	if rankBlockBits(1024, 2) != 5 {
		t.Errorf("rankBlockBits(1024,2) = %d, want 5", rankBlockBits(1024, 2))
	}
	if rankBlockBits(1024, 100) != 1 {
		t.Errorf("rankBlockBits(1024,100) = %d, want 1", rankBlockBits(1024, 100))
	}
	if rankBlockBits(2, 1) < 1 {
		t.Error("rankBlockBits must be at least 1")
	}
}

func TestSpannerKProbeComplexitySparseRegime(t *testing.T) {
	// On bounded-degree graphs probes per query must be far below m (the
	// whole point of locality). The theory bound is ~O(Delta^4 n^{2/3}).
	g := gen.Torus(16, 16) // n=256, Delta=4
	lca := NewSpannerKConfig(oracle.New(g), 2, 67, KConfig{L: 25, CenterProb: 0.04})
	edges := g.Edges()
	prg := rnd.NewPRG(5)
	var stats core.QueryStats
	for i := 0; i < 40; i++ {
		e := edges[prg.Intn(len(edges))]
		before := lca.ProbeStats()
		lca.QueryEdge(e.U, e.V)
		stats.Observe(lca.ProbeStats().Sub(before))
	}
	n := float64(g.N())
	bound := 256.0 * 16 * math.Pow(n, 2.0/3) // Delta^4=256, generous polylog
	if float64(stats.MaxTotal) > bound {
		t.Errorf("max probes %d exceed %.0f", stats.MaxTotal, bound)
	}
	t.Logf("torus probes per query: max=%d mean=%.0f (m=%d)", stats.MaxTotal, stats.Mean(), g.M())
}

func TestSpannerKRankWidthQOne(t *testing.T) {
	// Q=1 is the Lenzen-Levi-style extreme (a single lowest-rank edge per
	// rule-3 pair): connectivity must still hold unconditionally, stretch
	// may degrade to O(k log n).
	g := gen.Gnp(160, 0.04, 51)
	cfg := mixedConfig()
	cfg.Q = 1
	lca := NewSpannerKConfig(oracle.New(g), 2, 3, cfg)
	h, _ := core.BuildSubgraph(g, lca)
	if err := core.VerifyConnectivityPreserved(g, h); err != nil {
		t.Fatal(err)
	}
}

func TestSpannerKSizeMonotoneInQ(t *testing.T) {
	// Larger Q keeps more rule-3 edges: |H| must not shrink as Q grows,
	// tracing the stretch-vs-size trade-off of the paper's remark after
	// Theorem 1.2.
	g := gen.Gnp(200, 0.05, 53)
	base := mixedConfig()
	prev := -1
	for _, q := range []int{1, 4, 64} {
		cfg := base
		cfg.Q = q
		lca := NewSpannerKConfig(oracle.New(g), 2, 9, cfg)
		h, _ := core.BuildSubgraph(g, lca)
		if prev >= 0 && h.M() < prev {
			t.Errorf("Q=%d produced %d edges, fewer than smaller Q (%d)", q, h.M(), prev)
		}
		prev = h.M()
	}
}

// TestSpannerKProbeCountsDeterministic: a query's probe count is a
// function of (graph, seed, query) alone. Fresh instances answering the
// same edge must spend the same probes, not just give the same answer;
// a rule that probes while ranging over a map and stops at its first
// hit would make the count follow Go's randomized map order.
func TestSpannerKProbeCountsDeterministic(t *testing.T) {
	const n, queries, reps = 20000, 400, 5
	g := gen.Gnp(n, 8/float64(n-1), 3)
	edges := g.Edges()
	for q := 0; q < queries; q++ {
		e := edges[(q*7919)%len(edges)]
		var want uint64
		var wantIn bool
		for r := 0; r < reps; r++ {
			s := NewSpannerK(oracle.New(g), 3, 7)
			in := s.QueryEdge(e.U, e.V)
			got := s.ProbeStats().Total()
			if r == 0 {
				want, wantIn = got, in
				continue
			}
			if got != want || in != wantIn {
				t.Fatalf("edge (%d,%d): instance %d answered %v in %d probes, instance 0 %v in %d",
					e.U, e.V, r, in, got, wantIn, want)
			}
		}
	}
}
