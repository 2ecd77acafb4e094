package lca

import (
	"fmt"

	"lca/internal/balls"
	"lca/internal/baseline"
	"lca/internal/coloring"
	"lca/internal/core"
	"lca/internal/estimate"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/lowerbound"
	"lca/internal/matching"
	"lca/internal/mis"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
	"lca/internal/source"
	"lca/internal/spanner"
	"lca/internal/trace"
)

// Core model types.
type (
	// Graph is an immutable simple undirected graph on vertices 0..N()-1.
	Graph = graph.Graph
	// Edge is an undirected edge in canonical orientation.
	Edge = graph.Edge
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
	// Oracle is the adjacency-list probe interface every LCA runs against.
	Oracle = oracle.Oracle
	// Source is the pluggable probe substrate behind a session: an
	// in-memory *Graph, an implicit deterministic generator, or a cold
	// disk-backed CSR file (see OpenSource and NewSessionFromSource).
	Source = source.Source
	// ProbeCounter wraps an Oracle with probe accounting. Its Stats add
	// the transport the chain consumed (round trips, failovers, page
	// locality, ...), read from the counters found by walking the chain's
	// Unwrap methods once at construction; the counter itself forwards
	// none of them.
	ProbeCounter = oracle.Counter
	// ProbeStats is a snapshot of probe counts by probe type.
	ProbeStats = oracle.Stats
	// Seed is the master random seed an LCA derives all decisions from.
	Seed = rnd.Seed
	// Tracer records a probe-level span tree for traced queries (see
	// Session WithTracer and NewTracer).
	Tracer = trace.Tracer
	// TraceSpan is one recorded span of a trace.
	TraceSpan = trace.Span
	// PRG is a deterministic pseudo-random generator for workloads.
	PRG = rnd.PRG
	// HashFamily is a bounded-independence hash family.
	HashFamily = rnd.Family
)

// LCA interfaces and harness types.
type (
	// EdgeLCA answers consistent edge-membership queries.
	EdgeLCA = core.EdgeLCA
	// VertexLCA answers consistent vertex-membership queries.
	VertexLCA = core.VertexLCA
	// LabelLCA answers consistent vertex-labeling queries.
	LabelLCA = core.LabelLCA
	// QueryStats aggregates per-query probe counts.
	QueryStats = core.QueryStats
	// StretchReport summarizes a stretch verification pass.
	StretchReport = core.StretchReport
)

// Algorithm types.
type (
	// Spanner3 is the stretch-3 spanner LCA (~O(n^{3/4}) probes/query).
	Spanner3 = spanner.Spanner3
	// Spanner5 is the stretch-5 spanner LCA (~O(n^{5/6}) probes/query).
	Spanner5 = spanner.Spanner5
	// SpannerK is the stretch-O(k^2) spanner LCA.
	SpannerK = spanner.SpannerK
	// SuperSpanner is the generalized high-degree construction of
	// Theorem 3.5: a 3-spanner for all edges with both endpoint degrees at
	// least n^{1-1/(2r)}, using ~O(n^{1+1/r}) edges.
	SuperSpanner = spanner.SuperSpanner
	// SpannerConfig tunes the constants of the spanner constructions.
	SpannerConfig = spanner.Config
	// SpannerKConfig tunes the O(k^2) construction.
	SpannerKConfig = spanner.KConfig
	// MIS is the maximal-independent-set LCA.
	MIS = mis.MIS
	// Matching is the maximal-matching / vertex-cover LCA.
	Matching = matching.Matching
	// ApproxMatching is the (1-eps)-approximate maximum matching LCA.
	ApproxMatching = matching.ApproxMatching
	// Coloring is the (Delta+1)-coloring LCA.
	Coloring = coloring.Coloring
	// EstimateResult is a sampled solution-size estimate with confidence
	// radius.
	EstimateResult = estimate.Result
	// ProbeLimiter enforces a hard per-window probe budget.
	ProbeLimiter = oracle.LimitOracle
)

// NewOracle wraps a concrete graph as a probe oracle.
func NewOracle(g *Graph) Oracle { return oracle.New(g) }

// NewTracer returns a tracer with a fresh trace ID and the default span
// cap, ready for Session's WithTracer. Read the recorded tree with
// Spans() after querying.
func NewTracer() *Tracer { return trace.New(trace.NewID(), trace.DefaultMaxSpans) }

// NewProbeCounter wraps an oracle with probe accounting.
func NewProbeCounter(o Oracle) *ProbeCounter { return oracle.NewCounter(o) }

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Flat constructors. These predate the registry and are retained as thin
// wrappers over it so existing code keeps compiling; new code should reach
// algorithms through NewSession (which owns the oracle, seed, budget and
// parallel-assembly plumbing) or, for custom oracle chains, through the
// registry-backed constructors below. See doc.go for the deprecation
// status.

// mustBuild routes a flat constructor through the registry. The flat
// constructors keep their historical non-failing signatures; after
// parameter clamping the registry build cannot fail, so an error here is a
// registration bug worth a panic.
func mustBuild[T any](name string, o Oracle, seed Seed, p registry.Params) T {
	inst, err := registry.Build(name, o, seed, p)
	if err != nil {
		panic(fmt.Sprintf("lca: %v", err))
	}
	return inst.(T)
}

// spannerParams maps a SpannerConfig onto registry parameters.
func spannerParams(cfg SpannerConfig) registry.Params {
	return registry.Params{
		"memo":         cfg.Memo,
		"independence": cfg.Independence,
		"hitconst":     cfg.HitConst,
	}
}

// spannerKParams maps a SpannerKConfig onto registry parameters.
func spannerKParams(cfg SpannerKConfig) registry.Params {
	p := spannerParams(cfg.Config)
	p["l"] = cfg.L
	p["centerprob"] = cfg.CenterProb
	p["markprob"] = cfg.MarkProb
	p["q"] = cfg.Q
	return p
}

// NewSpanner3 returns the 3-spanner LCA of Theorem 1.1 (r=2).
// Prefer NewSession and Session.Edge("spanner3", u, v).
func NewSpanner3(o Oracle, seed Seed) *Spanner3 {
	return mustBuild[*Spanner3]("spanner3", o, seed, nil)
}

// NewSpanner3Config returns a configured 3-spanner LCA.
func NewSpanner3Config(o Oracle, seed Seed, cfg SpannerConfig) *Spanner3 {
	return mustBuild[*Spanner3]("spanner3", o, seed, spannerParams(cfg))
}

// NewSpanner5 returns the 5-spanner LCA of Theorem 1.1 (r=3).
// Prefer NewSession and Session.Edge("spanner5", u, v).
func NewSpanner5(o Oracle, seed Seed) *Spanner5 {
	return mustBuild[*Spanner5]("spanner5", o, seed, nil)
}

// NewSpanner5Config returns a configured 5-spanner LCA.
func NewSpanner5Config(o Oracle, seed Seed, cfg SpannerConfig) *Spanner5 {
	return mustBuild[*Spanner5]("spanner5", o, seed, spannerParams(cfg))
}

// NewSpannerK returns the O(k^2)-spanner LCA of Theorem 1.2.
// Prefer NewSession with WithParam("k", k) and Session.Edge("spannerk", u, v).
func NewSpannerK(o Oracle, k int, seed Seed) *SpannerK {
	if k < 1 {
		k = 1
	}
	return mustBuild[*SpannerK]("spannerk", o, seed, registry.Params{"k": k})
}

// NewSpannerKConfig returns a configured O(k^2)-spanner LCA.
func NewSpannerKConfig(o Oracle, k int, seed Seed, cfg SpannerKConfig) *SpannerK {
	if k < 1 {
		k = 1
	}
	p := spannerKParams(cfg)
	p["k"] = k
	return mustBuild[*SpannerK]("spannerk", o, seed, p)
}

// NewSparseSpanning returns the sparse-spanning-graph specialization
// (k = ceil(log2 n)).
func NewSparseSpanning(o Oracle, seed Seed) *SpannerK {
	return mustBuild[*SpannerK]("sparse", o, seed, nil)
}

// NewSuperSpanner returns the Theorem 3.5 building block for parameter r:
// a stretch-3 construction for edges with both endpoint degrees at least
// n^{1-1/(2r)}.
func NewSuperSpanner(o Oracle, r int, seed Seed, cfg SpannerConfig) *SuperSpanner {
	if r < 1 {
		r = 1
	}
	p := spannerParams(cfg)
	p["r"] = r
	return mustBuild[*SuperSpanner]("superspanner", o, seed, p)
}

// NewSpanner5MinDegree returns the full Theorem 3.5 LCA: on graphs with
// minimum degree at least n^{1/2-1/(2r)} it answers for a 5-spanner with
// ~O(n^{1+1/r}) edges — sparser than the general-graph 5-spanner for r>3.
func NewSpanner5MinDegree(o Oracle, r int, seed Seed, cfg SpannerConfig) *Spanner5 {
	if r < 1 {
		r = 1
	}
	p := spannerParams(cfg)
	p["r"] = r
	return mustBuild[*Spanner5]("spanner5mindeg", o, seed, p)
}

// NewMIS returns the maximal-independent-set LCA.
// Prefer NewSession and Session.Vertex("mis", v).
func NewMIS(o Oracle, seed Seed) *MIS {
	return mustBuild[*MIS]("mis", o, seed, nil)
}

// NewMatching returns the maximal-matching / vertex-cover LCA.
// Prefer NewSession and Session.Edge("matching", u, v) or
// Session.Vertex("vertexcover", v).
func NewMatching(o Oracle, seed Seed) *Matching {
	return mustBuild[*Matching]("matching", o, seed, nil)
}

// NewColoring returns the (Delta+1)-coloring LCA.
// Prefer NewSession and Session.Label("coloring", v).
func NewColoring(o Oracle, seed Seed) *Coloring {
	return mustBuild[*Coloring]("coloring", o, seed, nil)
}

// NewApproxMatching returns the (1-eps)-approximate maximum matching LCA
// with the given number of augmentation rounds (ratio (r+1)/(r+2)).
// Prefer NewSession with WithParam("rounds", rounds).
func NewApproxMatching(o Oracle, rounds int, seed Seed) *ApproxMatching {
	if rounds < 0 {
		rounds = 0
	}
	return mustBuild[*ApproxMatching]("approxmatching", o, seed, registry.Params{"rounds": rounds})
}

// NewProbeLimiter wraps an oracle with a hard probe budget; exceeding it
// panics with a recoverable typed error (see ProbeLimiter.WithinBudget).
func NewProbeLimiter(o Oracle, budget uint64) *ProbeLimiter { return oracle.NewLimit(o, budget) }

// Harness: assembly and verification.

// BuildSubgraph queries the LCA on every edge of g and assembles the
// subgraph, with per-query probe statistics.
func BuildSubgraph(g *Graph, l EdgeLCA) (*Graph, QueryStats) { return core.BuildSubgraph(g, l) }

// BuildVertexSet queries the LCA on every vertex of g.
func BuildVertexSet(g *Graph, l VertexLCA) ([]bool, QueryStats) { return core.BuildVertexSet(g, l) }

// BuildLabels queries the LCA on every vertex of g.
func BuildLabels(g *Graph, l LabelLCA) ([]int, QueryStats) { return core.BuildLabels(g, l) }

// BuildSubgraphParallel assembles with one fresh LCA instance per worker;
// the result equals the serial assembly (instances share no state).
func BuildSubgraphParallel(g *Graph, factory func() EdgeLCA, workers int) (*Graph, QueryStats) {
	return core.BuildSubgraphParallel(g, factory, workers)
}

// BuildVertexSetParallel is the vertex analogue of BuildSubgraphParallel.
func BuildVertexSetParallel(g *Graph, factory func() VertexLCA, workers int) ([]bool, QueryStats) {
	return core.BuildVertexSetParallel(g, factory, workers)
}

// EstimateVertexFraction estimates the fraction of vertices selected by
// the LCA from s sampled queries, with a Hoeffding confidence radius at
// level 1-delta.
func EstimateVertexFraction(n int, l VertexLCA, s int, delta float64, seed Seed) EstimateResult {
	return estimate.VertexFraction(n, l, s, delta, seed)
}

// EstimateEdgeFraction estimates the fraction of g's edges selected by the
// LCA (spanner density, matching density, ...).
func EstimateEdgeFraction(g *Graph, l EdgeLCA, s int, delta float64, seed Seed) EstimateResult {
	return estimate.EdgeFraction(g, l, s, delta, seed)
}

// EstimateSamplesFor returns the sample count achieving additive error
// epsilon at confidence 1-delta.
func EstimateSamplesFor(epsilon, delta float64) int { return estimate.SamplesFor(epsilon, delta) }

// VerifyStretch checks dist_H(u,v) <= maxStretch for every edge of g.
func VerifyStretch(g, h *Graph, maxStretch int) StretchReport {
	return core.VerifyStretch(g, h, maxStretch)
}

// VerifyStretchSampled checks a sample of g's edges.
func VerifyStretchSampled(g, h *Graph, maxStretch, sample int, seed Seed) StretchReport {
	return core.VerifyStretchSampled(g, h, maxStretch, sample, seed)
}

// VerifyConnectivityPreserved checks that h spans every component of g.
func VerifyConnectivityPreserved(g, h *Graph) error {
	return core.VerifyConnectivityPreserved(g, h)
}

// VerifyMaximalIndependentSet checks independence and maximality.
func VerifyMaximalIndependentSet(g *Graph, in []bool) error {
	return core.VerifyMaximalIndependentSet(g, in)
}

// VerifyMaximalMatching checks matching validity and maximality.
func VerifyMaximalMatching(g, m *Graph) error { return core.VerifyMaximalMatching(g, m) }

// VerifyColoring checks properness with colors in [0, maxColors).
func VerifyColoring(g *Graph, colors []int, maxColors int) error {
	return core.VerifyColoring(g, colors, maxColors)
}

// Workload generators.

// Gnp samples an Erdos-Renyi G(n, p) graph.
func Gnp(n int, p float64, seed Seed) *Graph { return gen.Gnp(n, p, seed) }

// RandomRegular samples a simple d-regular graph.
func RandomRegular(n, d int, seed Seed) (*Graph, error) { return gen.RandomRegular(n, d, seed) }

// ChungLu samples a power-law graph with exponent beta and the given
// average degree.
func ChungLu(n int, beta, avgDeg float64, seed Seed) *Graph {
	return gen.ChungLu(n, beta, avgDeg, seed)
}

// Complete returns the clique K_n.
func Complete(n int) *Graph { return gen.Complete(n) }

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// Torus returns the rows x cols torus.
func Torus(rows, cols int) *Graph { return gen.Torus(rows, cols) }

// PlantedClusters returns a stochastic block model graph.
func PlantedClusters(n, k int, pIn, pOut float64, seed Seed) *Graph {
	return gen.PlantedClusters(n, k, pIn, pOut, seed)
}

// DenseCore returns a clique-core-plus-periphery composite.
func DenseCore(n, coreSize int, peripheryDeg float64, seed Seed) *Graph {
	return gen.DenseCore(n, coreSize, peripheryDeg, seed)
}

// Global baselines.

// BaswanaSen runs the global randomized (2k-1)-spanner algorithm.
func BaswanaSen(g *Graph, k int, seed Seed) *Graph { return baseline.BaswanaSen(g, k, seed) }

// GreedySpanner runs the global greedy (2k-1)-spanner algorithm.
func GreedySpanner(g *Graph, k int) *Graph { return baseline.GreedySpanner(g, k) }

// SpanningForest returns a BFS spanning forest.
func SpanningForest(g *Graph) *Graph { return baseline.SpanningForest(g) }

// Load balancing (the RTVX d-choice application).
type (
	// BallsOracle is the probe interface over a balls-and-bins choice
	// structure.
	BallsOracle = balls.Oracle
	// ChoiceTable is a materialized choice structure.
	ChoiceTable = balls.ChoiceTable
	// BallAssignment answers d-choice placement queries.
	BallAssignment = balls.Assignment
)

// NewChoiceTable samples an n-balls/m-bins/d-choices structure.
func NewChoiceTable(n, m, d int, seed Seed) *ChoiceTable {
	return balls.NewChoiceTable(n, m, d, seed)
}

// NewBallAssignment returns the d-choice placement LCA.
func NewBallAssignment(o BallsOracle, seed Seed) *BallAssignment { return balls.New(o, seed) }

// Lower-bound apparatus (Theorem 1.3).
type (
	// LBInstance is a d-regular matching-table instance.
	LBInstance = lowerbound.Instance
	// LBOracle is the cell-level probe oracle over an LBInstance.
	LBOracle = lowerbound.TableOracle
	// LBExperiment measures distinguisher advantage versus probe budget.
	LBExperiment = lowerbound.Experiment
)

// SampleDPlus draws a D+ instance (designated edge removable w.h.p.).
func SampleDPlus(n, d, x, a, y, b int, seed Seed) (*LBInstance, error) {
	return lowerbound.SampleDPlus(n, d, x, a, y, b, seed)
}

// SampleDMinus draws a D- instance (designated edge is the only bridge).
func SampleDMinus(n, d, x, a, y, b int, seed Seed) (*LBInstance, error) {
	return lowerbound.SampleDMinus(n, d, x, a, y, b, seed)
}

// NewLBOracle wraps an instance with probe counting.
func NewLBOracle(inst *LBInstance) *LBOracle { return lowerbound.NewTableOracle(inst) }

// BFSMeet runs the probe-bounded BFS-meet distinguisher.
func BFSMeet(o *LBOracle, budget int) (met bool, probesUsed int) {
	return lowerbound.BFSMeet(o, budget)
}
