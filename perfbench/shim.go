package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"lca/internal/attest"
	"lca/internal/oracle"
	"lca/internal/rnd"
	"lca/internal/source"
)

// capsOf lifts every optional capability of caps.go that src has, static
// or dynamic, into one Caps value, so a wrapper presenting it through
// CapSource hides none of them.
func capsOf(src source.Source) source.Caps {
	var c source.Caps
	if ec, ok := source.EdgeCounterOf(src); ok {
		c.M = ec.M
	}
	if db, ok := source.DegreeBounderOf(src); ok {
		c.MaxDegree = db.MaxDegree
	}
	if re, ok := source.RandomEdgerOf(src); ok {
		c.RandomEdge = func(prg *rnd.PRG) (int, int) { return re.RandomEdge(prg) }
	}
	if rf, ok := source.RowFetcherOf(src); ok {
		c.FetchRows = rf.FetchRows
	}
	if _, ok := source.HealthOf(src); ok {
		c.Health = func() []source.ShardHealth { h, _ := source.HealthOf(src); return h }
	}
	if at, ok := source.AttestorOf(src); ok {
		c.Attest = func() source.Attestor { return at }
	}
	if lr, ok := source.LocalityOf(src); ok {
		c.Locality = func() (uint64, uint64) { return lr.PageTouches(), lr.LocalHits() }
	}
	return c
}

// checkLocal refuses sources with transport capabilities a wrapper cannot
// forward by method set (round trips, batches, scoping, exploration):
// the shims wrap local backends only.
func checkLocal(src source.Source) error {
	switch src.(type) {
	case source.RoundTripCounter, source.BatchProber, source.TripScoper,
		source.FailoverCounter, source.AttestCounter, oracle.Explorer:
		return fmt.Errorf("perfbench: %T has transport capabilities; shims wrap local sources only", src)
	}
	return nil
}

// probeShim counts and times every probe a local source answers. It
// forwards every optional capability through the dynamic view, and
// newProbeShim adds the static LocalityReporter methods the oracle
// counters look for, so wrapping changes no capability discovery.
type probeShim struct {
	src  source.Source
	caps source.Caps

	degree, neighbor, adjacency atomic.Uint64
	busy                        atomic.Int64 // ns spent inside src
}

// localityShim is a probeShim over a source reporting page locality.
type localityShim struct {
	*probeShim
	lr source.LocalityReporter
}

// PageTouches implements source.LocalityReporter.
func (s localityShim) PageTouches() uint64 { return s.lr.PageTouches() }

// LocalHits implements source.LocalityReporter.
func (s localityShim) LocalHits() uint64 { return s.lr.LocalHits() }

// newProbeShim wraps src and returns the wrapped source together with
// the shim's counters.
func newProbeShim(src source.Source) (source.Source, *probeShim, error) {
	if err := checkLocal(src); err != nil {
		return nil, nil, err
	}
	s := &probeShim{src: src, caps: capsOf(src)}
	if lr, ok := source.LocalityOf(src); ok {
		return localityShim{s, lr}, s, nil
	}
	return s, s, nil
}

// N implements source.Source; free in the model, so not counted.
func (s *probeShim) N() int { return s.src.N() }

// Degree implements source.Source.
func (s *probeShim) Degree(v int) int {
	t := time.Now()
	d := s.src.Degree(v)
	s.busy.Add(int64(time.Since(t)))
	s.degree.Add(1)
	return d
}

// Neighbor implements source.Source.
func (s *probeShim) Neighbor(v, i int) int {
	t := time.Now()
	w := s.src.Neighbor(v, i)
	s.busy.Add(int64(time.Since(t)))
	s.neighbor.Add(1)
	return w
}

// Adjacency implements source.Source.
func (s *probeShim) Adjacency(u, v int) int {
	t := time.Now()
	i := s.src.Adjacency(u, v)
	s.busy.Add(int64(time.Since(t)))
	s.adjacency.Add(1)
	return i
}

// Caps implements source.CapSource.
func (s *probeShim) Caps() source.Caps { return s.caps }

// Close forwards to the wrapped source when it holds resources.
func (s *probeShim) Close() error { return closeSource(s.src) }

// locality returns the wrapped source's (pageTouches, localHits), zero
// when it does not report locality.
func (s *probeShim) locality() (uint64, uint64) {
	if s.caps.Locality == nil {
		return 0, 0
	}
	return s.caps.Locality()
}

// shimCounts is a snapshot of a probe shim's counters.
type shimCounts struct {
	degree, neighbor, adjacency uint64
	busy                        int64
	pageTouches, localHits      uint64
}

func (s *probeShim) counts() shimCounts {
	pt, lh := s.locality()
	return shimCounts{s.degree.Load(), s.neighbor.Load(), s.adjacency.Load(), s.busy.Load(), pt, lh}
}

func (c shimCounts) sub(o shimCounts) shimCounts {
	return shimCounts{c.degree - o.degree, c.neighbor - o.neighbor, c.adjacency - o.adjacency,
		c.busy - o.busy, c.pageTouches - o.pageTouches, c.localHits - o.localHits}
}

func (c shimCounts) add(o shimCounts) shimCounts {
	return shimCounts{c.degree + o.degree, c.neighbor + o.neighbor, c.adjacency + o.adjacency,
		c.busy + o.busy, c.pageTouches + o.pageTouches, c.localHits + o.localHits}
}

func (c shimCounts) probes() uint64 { return c.degree + c.neighbor + c.adjacency }

// attestShim sits above source.NewAttested and records a "prove" span,
// under the serving shard's handler span, for every row proof the shard
// builds. Probes pass through uncounted: the probe shim below counts them.
type attestShim struct {
	src  source.Source
	at   source.Attestor
	caps source.Caps
	rec  *recorder
	slot *handlerSlot
}

// newAttestShim wraps an attested source; src must have the Attestor
// capability.
func newAttestShim(src source.Source, rec *recorder, slot *handlerSlot) (*attestShim, error) {
	if err := checkLocal(src); err != nil {
		return nil, err
	}
	at, ok := source.AttestorOf(src)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T carries no commitment", src)
	}
	s := &attestShim{src: src, at: at, caps: capsOf(src), rec: rec, slot: slot}
	s.caps.Attest = func() source.Attestor { return timedAttestor{s} }
	return s, nil
}

// N implements source.Source.
func (s *attestShim) N() int { return s.src.N() }

// Degree implements source.Source.
func (s *attestShim) Degree(v int) int { return s.src.Degree(v) }

// Neighbor implements source.Source.
func (s *attestShim) Neighbor(v, i int) int { return s.src.Neighbor(v, i) }

// Adjacency implements source.Source.
func (s *attestShim) Adjacency(u, v int) int { return s.src.Adjacency(u, v) }

// Caps implements source.CapSource.
func (s *attestShim) Caps() source.Caps { return s.caps }

// Close forwards to the wrapped source.
func (s *attestShim) Close() error { return closeSource(s.src) }

// timedAttestor is the Attestor view of an attestShim.
type timedAttestor struct{ s *attestShim }

// Commitment implements source.Attestor.
func (t timedAttestor) Commitment() attest.Root { return t.s.at.Commitment() }

// ProveRow implements source.Attestor.
func (t timedAttestor) ProveRow(v int) ([]int, []string) {
	q, parent := t.s.slot.get()
	id := t.s.rec.start("prove", q, parent)
	row, proof := t.s.at.ProveRow(v)
	t.s.rec.finish(id, 0)
	return row, proof
}

func closeSource(src source.Source) error {
	if c, ok := src.(source.Closer); ok {
		return c.Close()
	}
	return nil
}
