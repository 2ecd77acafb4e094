package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lca"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/rnd"
)

// spanner-local: the paper's headline query, Theorem 1.1's 3-spanner, on
// one Session over an mmap CSR file. No wire, no server: the source and
// algorithm layers do all the work. G(n, p) with Δ > √n keeps the work per
// query concentrated (p99/p50 ≈ 2.6), so the tail is a steady figure.
const (
	spannerN    = 10_000
	spannerP    = 0.03
	spannerList = 40_000
	spannerWarm = 50
)

type spannerLocal struct {
	seed uint64
	path string
}

// spannerGraph generates the workload's graph from its seed.
func spannerGraph(seed uint64) *graph.Graph { return gen.Gnp(spannerN, spannerP, rnd.Seed(seed)) }

func prepareSpannerLocal(seed uint64, dir string) (bench, []query, error) {
	g := spannerGraph(seed)
	path := filepath.Join(dir, fmt.Sprintf("spanner-local-%d.csr", seed))
	if err := writeCSR(path, g); err != nil {
		return nil, nil, err
	}
	return &spannerLocal{seed: seed, path: path}, randomEdges(g, seed, spannerWarm+spannerList), nil
}

// writeCSR saves g the way lcagen -format csr does.
func writeCSR(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteCSR(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// randomEdges draws n uniform edges of g from the workload seed.
func randomEdges(g *graph.Graph, seed uint64, n int) []query {
	prg := rnd.NewPRG(rnd.Seed(seed).Derive(0x9e7))
	out := make([]query, n)
	for i := range out {
		u, v := g.RandomEdge(prg)
		out[i] = query{a: int32(u), b: int32(v)}
	}
	return out
}

func (s *spannerLocal) close() error { return os.Remove(s.path) }

func (s *spannerLocal) setup(rec *recorder, first []query) (system, split, error) {
	var sp split
	t := time.Now()
	src, err := lca.OpenSource("csr:"+s.path+"?mmap=1", lcaSeed)
	if err != nil {
		return nil, sp, err
	}
	sys := &sessionSystem{algo: "spanner3"}
	if rec != nil {
		shimmed, shim, err := newProbeShim(src)
		if err != nil {
			closeSource(src)
			return nil, sp, err
		}
		src = shimmed
		sys.lay.sources = []*probeShim{shim}
	}
	sys.sess = lca.NewSessionFromSource(src, lca.WithSeed(lcaSeed))
	sp.open = time.Since(t)
	t = time.Now()
	if _, err := answerAll(sys, first); err != nil {
		sys.close()
		return nil, sp, err
	}
	sp.first = time.Since(t)
	return sys, sp, nil
}

// reference answers on a Session over the in-memory graph, generated
// again from the seed: the timed phases run without it in memory.
func (s *spannerLocal) reference(qs []query) ([]result, error) {
	sys := &sessionSystem{algo: "spanner3", sess: lca.NewSession(spannerGraph(s.seed), lca.WithSeed(lcaSeed))}
	return answerAll(sys, qs)
}

// answerAll answers qs in order on sys.
func answerAll(sys system, qs []query) ([]result, error) {
	out := make([]result, len(qs))
	for i, q := range qs {
		r, err := sys.do(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// sessionSystem answers edge queries for one algorithm on a Session,
// reading the per-query counts from the Session's probe accounting.
type sessionSystem struct {
	sess *lca.Session
	// newSession, when set, gives every query a fresh Session over the
	// same source, as the server gives every request a fresh instance.
	newSession func() *lca.Session
	algo       string
	lay        layerSet
	// stop closes whatever else the system runs (servers, shards).
	stop func() error
}

func (s *sessionSystem) do(q query) (result, error) {
	if s.newSession != nil {
		s.sess = s.newSession()
	}
	before, err := s.sess.ProbeStats(s.algo)
	if err != nil {
		return result{}, err
	}
	var tc0 tripCounts
	if s.lay.trips != nil {
		tc0 = s.lay.trips.counts()
	}
	in, err := s.sess.Edge(s.algo, int(q.a), int(q.b))
	if err != nil {
		return result{}, err
	}
	after, err := s.sess.ProbeStats(s.algo)
	if err != nil {
		return result{}, err
	}
	st := after.Sub(before)
	r := result{probes: st.Total(), roundTrips: st.RoundTrips, batches: st.Batches, remainders: st.RemainderTrips,
		failovers: st.Failovers, hedges: st.Hedges, attestFails: st.AttestFailures, proofBytes: st.ProofBytes}
	if in {
		r.ans = 1
	}
	if s.lay.trips != nil {
		tc := s.lay.trips.counts().sub(tc0)
		r.reqBytes, r.respBytes = tc.reqBytes, tc.respBytes
	}
	return r, nil
}

func (s *sessionSystem) layers() layerSet { return s.lay }

func (s *sessionSystem) close() error {
	err := s.sess.Close()
	if s.stop != nil {
		if serr := s.stop(); err == nil {
			err = serr
		}
	}
	return err
}
