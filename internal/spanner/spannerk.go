package spanner

// The O(k^2)-spanner LCA of paper §4 (Theorem 1.2): ~O(n^{1+1/k}) edges,
// probe complexity ~O(Delta^4 n^{2/3}) with the default L = n^{1/3}. The
// construction splits the graph around a hash-sampled center set S:
//
//   sparse side: vertices with no center within distance k. Their edges are
//     spanned by a local simulation of the k-round Baswana-Sen algorithm on
//     G_sparse (bsim.go).
//
//   dense side: every dense vertex reaches its first-discovered center via
//     the ID-ordered BFS variant (Figure 6), inducing Voronoi cells spanned
//     by depth-k Voronoi trees (H^I). Cells are refined into clusters of
//     size O(L) through the heavy/light subtree rule (§4.3.2), and clusters
//     are interconnected (H^B) by three rules: marked clusters connect to
//     all adjacent clusters; clusters with no marked neighbor cell connect
//     to all adjacent cells; and the ranked rule (3) connects a cluster to
//     the q = ~O(n^{1/k}) lowest-ranked common neighbors of itself and each
//     marked cluster it participates with, which caps the inductive
//     connectivity argument at O(k) hops (Idea (V)). Ranks are concatenated
//     bounded-independence hash blocks (§5.2, rnd.RankAssigner).
//
// Two exactness choices (DESIGN.md "Deviations" item 1): the center-search
// BFS is truncated at depth k but not at L discovered vertices, and the
// sparse/dense test is the exact "no center within distance k" predicate.
// Both match the paper's definitions; the L-cutoffs are w.h.p. probe
// bounds, not part of the spanner's definition, so keeping the rule exact
// preserves query consistency on unlucky seeds while the measured probe
// counts still exhibit the ~O(Delta L) behaviour.

import (
	"sort"

	"lca/internal/oracle"
	"lca/internal/rnd"
)

// KConfig tunes the O(k^2)-spanner beyond the shared Config knobs. Zero
// values select the paper's parameters.
type KConfig struct {
	Config
	// L is the sparse/dense volume threshold (default ceil(n^{1/3})).
	L int
	// CenterProb overrides the center-sampling probability
	// (default min(1, HitConst*ln(n+2)/L)).
	CenterProb float64
	// MarkProb overrides the Voronoi-cell marking probability (default 1/L).
	MarkProb float64
	// Q overrides the rank-rule width q (default ceil(HitConst * n^{1/k} *
	// ln(n+2))).
	Q int
}

// SpannerK is an LCA for O(k^2)-spanners. Construct with NewSpannerK; the
// zero value is unusable. Not safe for concurrent use.
type SpannerK struct {
	counter *oracle.Counter
	n, k, l int
	q       int
	pCenter float64
	pMark   float64

	centerFam *rnd.Family
	markFam   *rnd.Family
	ranks     *rnd.RankAssigner
	bs        bsConfig

	memo         bool
	statusMemo   map[int]*vstatus
	childrenMemo map[int][]int
	subtreeMemo  map[int]int
	clusterMemo  map[int]*clusterInfo
	scanMemo     map[clusterKey]map[int]cellEdge
	keepMemo     map[[2]int]bool
}

// vstatus is the outcome of the center-search BFS from one vertex.
type vstatus struct {
	sparse bool
	center int   // first-discovered center (dense only)
	path   []int // lexicographically-first shortest path, vertex first, center last
}

// clusterKey identifies a cluster: kind 'a' (whole light cell, a=center),
// 'b' (heavy singleton, a=vertex), or 'c' (subtree group, a=heavy parent,
// b=group index).
type clusterKey struct {
	kind byte
	a, b int
}

// clusterInfo is a fully materialized cluster.
type clusterInfo struct {
	key       clusterKey
	cell      int // Voronoi cell center
	members   []int
	memberSet map[int]struct{}
	marked    bool
}

// cellEdge is the minimum-ID edge from a cluster to one adjacent cell;
// Inside is the cluster-side endpoint.
type cellEdge struct {
	Inside, Outside int
}

// NewSpannerK returns an O(k^2)-spanner LCA with default parameters.
func NewSpannerK(o oracle.Oracle, k int, seed rnd.Seed) *SpannerK {
	return NewSpannerKConfig(o, k, seed, KConfig{})
}

// NewSparseSpanning returns the sparse-spanning-graph specialization:
// k = ceil(log2 n), where ~O(n^{1+1/k}) = ~O(n) edges and the stretch
// guarantee degrades to polylog(n) — the regime of Lenzen-Levi.
func NewSparseSpanning(o oracle.Oracle, seed rnd.Seed) *SpannerK {
	k := ceilLog2(o.N())
	if k < 1 {
		k = 1
	}
	return NewSpannerK(o, k, seed)
}

// NewSpannerKConfig returns an O(k^2)-spanner LCA with explicit parameters.
func NewSpannerKConfig(o oracle.Oracle, k int, seed rnd.Seed, cfg KConfig) *SpannerK {
	n := o.N()
	cfg.Config = cfg.Config.withDefaults(n)
	if k < 1 {
		k = 1
	}
	if cfg.L <= 0 {
		cfg.L = ceilPow(n, 1.0/3)
	}
	if cfg.CenterProb <= 0 {
		cfg.CenterProb = hitProb(cfg.HitConst, n, cfg.L)
	}
	if cfg.MarkProb <= 0 {
		cfg.MarkProb = 1 / float64(cfg.L)
	}
	if cfg.Q <= 0 {
		cfg.Q = ceilPow(n, 1.0/float64(k))
		cfg.Q = 1 + int(cfg.HitConst*float64(cfg.Q)*float64(ceilLog2(n)+1))
	}
	counter := oracle.NewCounter(o)
	s := &SpannerK{
		counter:   counter,
		n:         n,
		k:         k,
		l:         cfg.L,
		q:         cfg.Q,
		pCenter:   cfg.CenterProb,
		pMark:     cfg.MarkProb,
		centerFam: rnd.NewFamily(seed.Derive(0x6b1), cfg.Independence),
		markFam:   rnd.NewFamily(seed.Derive(0x6b2), cfg.Independence),
		ranks:     rnd.NewRankAssigner(seed.Derive(0x6b3), k, rankBlockBits(n, k), cfg.Independence),
		bs:        newBSConfig(n, k, seed.Derive(0x6b4), cfg.Independence),
		memo:      cfg.Memo,
	}
	if s.memo {
		s.statusMemo = make(map[int]*vstatus)
		s.childrenMemo = make(map[int][]int)
		s.subtreeMemo = make(map[int]int)
		s.clusterMemo = make(map[int]*clusterInfo)
		s.scanMemo = make(map[clusterKey]map[int]cellEdge)
		s.keepMemo = make(map[[2]int]bool)
	}
	return s
}

// rankBlockBits returns N = ceil(log2(n)/k), the per-block rank width.
func rankBlockBits(n, k int) int {
	bits := (ceilLog2(n) + k - 1) / k
	if bits < 1 {
		bits = 1
	}
	return bits
}

// ProbeStats exposes cumulative probe counts.
func (s *SpannerK) ProbeStats() oracle.Stats { return s.counter.Stats() }

// K returns the stretch parameter; the stretch guarantee is O(k^2).
func (s *SpannerK) K() int { return s.k }

// isCenter reports whether v elected itself a center; no probes.
func (s *SpannerK) isCenter(v int) bool {
	return s.centerFam.Bernoulli(uint64(v), s.pCenter)
}

// cellMarked reports whether the Voronoi cell centered at c is marked.
func (s *SpannerK) cellMarked(c int) bool {
	return s.markFam.Bernoulli(uint64(c), s.pMark)
}

// rankOf returns the bounded-independence rank of a cell center.
func (s *SpannerK) rankOf(c int) rnd.Rank128 { return s.ranks.Rank(uint64(c)) }

// EdgeIsSparse reports whether (u,v) is an E_sparse edge, handled by the
// local Baswana-Sen simulation rather than the Voronoi machinery. Exposed
// for experiment bucketing; costs the two endpoint status searches.
func (s *SpannerK) EdgeIsSparse(u, v int) bool {
	return s.status(u).sparse || s.status(v).sparse
}

// EdgeClass reports which part of the construction decides (u,v):
// "sparse" (Baswana-Sen simulation), "tree" (same Voronoi cell, H^I), or
// "cells" (cross-cell, H^B). Exposed for experiment bucketing.
func (s *SpannerK) EdgeClass(u, v int) string {
	stU, stV := s.status(u), s.status(v)
	switch {
	case stU.sparse || stV.sparse:
		return "sparse"
	case stU.center == stV.center:
		return "tree"
	default:
		return "cells"
	}
}

// QueryEdge reports whether the input-graph edge (u,v) belongs to the
// O(k^2)-spanner.
func (s *SpannerK) QueryEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	if s.memo {
		if ans, ok := s.keepMemo[[2]int{u, v}]; ok {
			return ans
		}
	}
	ans := s.query(u, v)
	if s.memo {
		s.keepMemo[[2]int{u, v}] = ans
	}
	return ans
}

func (s *SpannerK) query(u, v int) bool {
	stU := s.status(u)
	stV := s.status(v)
	if stU.sparse || stV.sparse {
		return s.sparseKeep(u, v)
	}
	if stU.center == stV.center {
		// Same Voronoi cell: H^I keeps exactly the Voronoi tree edges.
		return s.nextHop(stU) == v || s.nextHop(stV) == u
	}
	return s.denseRules(u, v, stU, stV)
}

// status runs the center-search BFS variant from v: explore in increasing
// distance, neighbors in increasing ID order, stop at the first discovered
// center or at depth k. Probes: O(Delta L) w.h.p. Each dequeued vertex's
// row is one exploration, and newly discovered vertices are prefetched as
// a group — on batched backends a BFS level costs a handful of round
// trips instead of one per cell.
func (s *SpannerK) status(v int) *vstatus {
	if s.memo {
		if st, ok := s.statusMemo[v]; ok {
			return st
		}
	}
	st := s.searchCenter(v)
	if s.memo {
		s.statusMemo[v] = st
	}
	return st
}

func (s *SpannerK) searchCenter(v int) *vstatus {
	if s.isCenter(v) {
		return &vstatus{center: v, path: []int{v}}
	}
	dist := map[int]int{v: 0}
	parent := map[int]int{}
	queue := []int{v}
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		d := dist[x]
		if d == s.k {
			continue
		}
		nbrs := append([]int(nil), s.counter.Neighbors(x)...)
		sort.Ints(nbrs)
		var fresh []int
		for _, w := range nbrs {
			if _, seen := dist[w]; !seen {
				fresh = append(fresh, w)
			}
		}
		if d+1 < s.k {
			// The next level will explore these rows; fetch them together.
			s.counter.Prefetch(fresh...)
		}
		for _, w := range nbrs {
			if _, seen := dist[w]; seen {
				continue
			}
			dist[w] = d + 1
			parent[w] = x
			queue = append(queue, w)
			if s.isCenter(w) {
				// Extract the lexicographically-first shortest path v..w.
				path := []int{w}
				for cur := w; cur != v; {
					cur = parent[cur]
					path = append(path, cur)
				}
				reverse(path)
				return &vstatus{center: w, path: path}
			}
		}
	}
	return &vstatus{sparse: true}
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// nextHop returns the parent of the status's vertex in its Voronoi tree
// (the second vertex of its path), or -1 for the center itself.
func (s *SpannerK) nextHop(st *vstatus) int {
	if st.sparse || len(st.path) < 2 {
		return -1
	}
	return st.path[1]
}

// children returns v's children in its Voronoi tree, in adjacency-list
// order (the order rule (c) groups subtrees by).
func (s *SpannerK) children(v int) []int {
	if s.memo {
		if ch, ok := s.childrenMemo[v]; ok {
			return ch
		}
	}
	st := s.status(v)
	var out []int
	if !st.sparse {
		for _, w := range s.counter.Neighbors(v) {
			stw := s.status(w)
			if !stw.sparse && stw.center == st.center && s.nextHop(stw) == v {
				out = append(out, w)
			}
		}
	}
	if s.memo {
		s.childrenMemo[v] = out
	}
	return out
}

// subtreeSize returns |T(v)| capped at l+1 (the heavy marker).
func (s *SpannerK) subtreeSize(v int) int {
	if s.memo {
		if sz, ok := s.subtreeMemo[v]; ok {
			return sz
		}
	}
	size := 0
	stack := []int{v}
	for len(stack) > 0 && size <= s.l {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		size++
		stack = append(stack, s.children(x)...)
	}
	if size > s.l {
		size = s.l + 1
	}
	if s.memo {
		s.subtreeMemo[v] = size
	}
	return size
}

func (s *SpannerK) heavy(v int) bool { return s.subtreeSize(v) > s.l }

// subtreeMembers returns all vertices of T(v) (callers ensure |T(v)| <= l).
func (s *SpannerK) subtreeMembers(v int) []int {
	var out []int
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, x)
		stack = append(stack, s.children(x)...)
	}
	return out
}

// clusterOf materializes the cluster containing the dense vertex v
// (paper §4.3.2 rules (a)-(c)).
func (s *SpannerK) clusterOf(v int, st *vstatus) *clusterInfo {
	if s.memo {
		if ci, ok := s.clusterMemo[v]; ok {
			return ci
		}
	}
	ci := s.buildCluster(v, st)
	if s.memo {
		for _, m := range ci.members {
			s.clusterMemo[m] = ci
		}
	}
	return ci
}

func (s *SpannerK) buildCluster(v int, st *vstatus) *clusterInfo {
	cell := st.center
	var key clusterKey
	var members []int
	switch {
	case !s.heavy(cell):
		// (a) light cell: the whole cell is one cluster.
		key = clusterKey{kind: 'a', a: cell}
		members = s.subtreeMembers(cell)
	case s.heavy(v):
		// (b) heavy vertex: singleton.
		key = clusterKey{kind: 'b', a: v}
		members = []int{v}
	default:
		// (c) light vertex under a heavy cell: group sibling subtrees under
		// the first heavy ancestor.
		path := st.path // v ... cell
		heavyIdx := -1
		for i := 1; i < len(path); i++ {
			if s.heavy(path[i]) {
				heavyIdx = i
				break
			}
		}
		u := path[heavyIdx]
		onPath := path[heavyIdx-1] // the child of u whose subtree holds v
		var group []int
		groupIdx := -1
		cur := []int{}
		size := 0
		gi := 0
		flush := func() {
			if containsUnsorted(cur, onPath) {
				group = append([]int(nil), cur...)
				groupIdx = gi
			}
			gi++
			cur = cur[:0]
			size = 0
		}
		for _, w := range s.children(u) {
			if s.heavy(w) {
				continue
			}
			cur = append(cur, w)
			size += s.subtreeSize(w)
			if size >= s.l {
				flush()
			}
		}
		if len(cur) > 0 {
			flush()
		}
		if groupIdx < 0 {
			// Unreachable if the lexicographically-first-path suffix lemma
			// holds (tested in spannerk_test.go); kept as a safe fallback
			// so a violated invariant degrades to a singleton cluster
			// instead of an empty one.
			key = clusterKey{kind: 'b', a: v}
			members = []int{v}
			break
		}
		key = clusterKey{kind: 'c', a: u, b: groupIdx}
		for _, w := range group {
			members = append(members, s.subtreeMembers(w)...)
		}
	}
	sort.Ints(members)
	set := make(map[int]struct{}, len(members))
	for _, m := range members {
		set[m] = struct{}{}
	}
	return &clusterInfo{
		key:       key,
		cell:      cell,
		members:   members,
		memberSet: set,
		marked:    s.cellMarked(cell),
	}
}

func containsUnsorted(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// scanCluster computes, for every Voronoi cell adjacent to the cluster
// (dense neighbors in other cells), the minimum-ID edge from the cluster
// into that cell. Probes: O(Delta^2 L^2) w.h.p. (each neighbor's status is
// a BFS).
func (s *SpannerK) scanCluster(ci *clusterInfo) map[int]cellEdge {
	if s.memo {
		if m, ok := s.scanMemo[ci.key]; ok {
			return m
		}
	}
	out := make(map[int]cellEdge)
	// All member rows in one exploration hint before the sweep.
	s.counter.Prefetch(ci.members...)
	for _, a := range ci.members {
		for _, w := range s.counter.Neighbors(a) {
			stw := s.status(w)
			if stw.sparse || stw.center == ci.cell {
				continue
			}
			e := cellEdge{Inside: a, Outside: w}
			if cur, ok := out[stw.center]; !ok || edgeLess([2]int{e.Inside, e.Outside}, [2]int{cur.Inside, cur.Outside}) {
				out[stw.center] = e
			}
		}
	}
	if s.memo {
		s.scanMemo[ci.key] = out
	}
	return out
}

// minEdgeToCluster returns the minimum-ID edge from cluster A into cluster
// B, or ok=false if they are not adjacent.
func (s *SpannerK) minEdgeToCluster(a, b *clusterInfo) (cellEdge, bool) {
	best := cellEdge{Inside: -1, Outside: -1}
	found := false
	s.counter.Prefetch(a.members...)
	for _, x := range a.members {
		for _, w := range s.counter.Neighbors(x) {
			if _, isMember := b.memberSet[w]; !isMember {
				continue
			}
			e := cellEdge{Inside: x, Outside: w}
			if !found || edgeLess([2]int{e.Inside, e.Outside}, [2]int{best.Inside, best.Outside}) {
				best = e
				found = true
			}
		}
	}
	return best, found
}

// denseRules evaluates the H^B connection rules (Figure 10) in both
// orientations.
func (s *SpannerK) denseRules(u, v int, stU, stV *vstatus) bool {
	a := s.clusterOf(u, stU)
	b := s.clusterOf(v, stV)
	// Rule (1): marked clusters connect to every adjacent cluster.
	if a.marked {
		if e, ok := s.minEdgeToCluster(a, b); ok && e.Inside == u && e.Outside == v {
			return true
		}
	}
	if b.marked {
		if e, ok := s.minEdgeToCluster(b, a); ok && e.Inside == v && e.Outside == u {
			return true
		}
	}
	scanA := s.scanCluster(a)
	scanB := s.scanCluster(b)
	if s.ruleTwoThree(u, v, a, b, scanA, scanB) {
		return true
	}
	return s.ruleTwoThree(v, u, b, a, scanB, scanA)
}

// ruleTwoThree evaluates rules (2) and (3) with A = cluster(u) as the
// connecting side: the candidate edge is A's minimum-ID edge into Vor(B).
func (s *SpannerK) ruleTwoThree(u, v int, a, b *clusterInfo, scanA, scanB map[int]cellEdge) bool {
	// Rule (2): if B has no marked adjacent cell, B connects to each of its
	// adjacent cells; the edge into Vor(A) is B's minimum-ID edge there.
	hasMarked := false
	for cell := range scanB {
		if s.cellMarked(cell) {
			hasMarked = true
			break
		}
	}
	if !hasMarked {
		if e, ok := scanB[a.cell]; ok && e.Inside == v && e.Outside == u {
			return true
		}
	}
	// Rule (3): only the minimum-ID edge of E(A, Vor(B)) can be kept.
	e, ok := scanA[b.cell]
	if !ok || e.Inside != u || e.Outside != v {
		return false
	}
	if !hasMarked {
		return false
	}
	rankB := s.rankOf(b.cell)
	// The loop probes (clusterOf, scanCluster) and returns at the first
	// qualifying cell, so it visits the marked cells in ascending order:
	// in map order the probe count would vary from run to run.
	var marked []int
	for cell := range scanB {
		if s.cellMarked(cell) {
			marked = append(marked, cell)
		}
	}
	sort.Ints(marked)
	for _, cell := range marked {
		// C is the marked cluster B participates with in Vor(cell).
		be := scanB[cell]
		c := s.clusterOf(be.Outside, s.status(be.Outside))
		scanC := s.scanCluster(c)
		// Rank of c(B) among the q lowest in c(∂A) ∩ c(∂C).
		lower := 0
		inIntersection := false
		for common := range scanA {
			if _, both := scanC[common]; !both {
				continue
			}
			if common == b.cell {
				inIntersection = true
				continue
			}
			r := s.rankOf(common)
			if r.Less(rankB) || (r == rankB && common < b.cell) {
				lower++
			}
		}
		if inIntersection && lower < s.q {
			return true
		}
	}
	return false
}

// sparseKeep decides E_sparse edges by locally simulating Baswana-Sen on
// G_sparse over the radius-k ball around the query endpoints.
func (s *SpannerK) sparseKeep(u, v int) bool {
	order, nbrs, dist := s.collectSparseBall(u, v)
	return s.bs.keepEdge(u, v, order, nbrs, dist)
}

// collectSparseBall gathers the radius-k ball around {u,v} in G_sparse,
// with complete neighbor lists for every vertex at distance <= k-1.
func (s *SpannerK) collectSparseBall(u, v int) (order []int, nbrs map[int][]int, dist map[int]int) {
	dist = map[int]int{u: 0}
	order = []int{u}
	if v != u {
		dist[v] = 0
		order = append(order, v)
	}
	nbrs = make(map[int][]int)
	for qi := 0; qi < len(order); qi++ {
		x := order[qi]
		d := dist[x]
		if d >= s.k {
			continue
		}
		lst := s.sparseNeighbors(x)
		nbrs[x] = lst
		for _, w := range lst {
			if _, seen := dist[w]; !seen {
				dist[w] = d + 1
				order = append(order, w)
			}
		}
	}
	return order, nbrs, dist
}

// sparseNeighbors returns x's neighbors in G_sparse: all neighbors if x is
// sparse, else only the sparse ones.
func (s *SpannerK) sparseNeighbors(x int) []int {
	xSparse := s.status(x).sparse
	var out []int
	for _, w := range s.counter.Neighbors(x) {
		if xSparse || s.status(w).sparse {
			out = append(out, w)
		}
	}
	return out
}
