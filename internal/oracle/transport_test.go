package oracle

// Tests for the Unwrap walk: every transport counter a source keeps must
// reach Counter.Stats through every wrapper, exactly, with no wrapper
// forwarding anything.

import (
	"testing"

	"lca/internal/graph"
	"lca/internal/source"
)

// meterSource is a local source that moves every transport counter on
// each probe, by a distinct step per counter, so a figure read from the
// wrong counter cannot pass for the right one.
type meterSource struct {
	g                              *graph.Graph
	trips, fails, hedges           uint64
	attestFails, proofBytes        uint64
	pageTouches, localHits, probes uint64
}

func (m *meterSource) tick() {
	m.probes++
	m.trips++
	m.fails += 2
	m.hedges += 3
	m.attestFails += 4
	m.proofBytes += 5
	m.pageTouches += 6
	m.localHits += 7
}

func (m *meterSource) N() int                 { return m.g.N() }
func (m *meterSource) Degree(v int) int       { m.tick(); return m.g.Degree(v) }
func (m *meterSource) Neighbor(v, i int) int  { m.tick(); return m.g.Neighbor(v, i) }
func (m *meterSource) Adjacency(u, v int) int { m.tick(); return m.g.Adjacency(u, v) }
func (m *meterSource) RoundTrips() uint64     { return m.trips }
func (m *meterSource) Failovers() uint64      { return m.fails }
func (m *meterSource) Hedges() uint64         { return m.hedges }
func (m *meterSource) AttestFailures() uint64 { return m.attestFails }
func (m *meterSource) ProofBytes() uint64     { return m.proofBytes }
func (m *meterSource) PageTouches() uint64    { return m.pageTouches }
func (m *meterSource) LocalHits() uint64      { return m.localHits }

// reading is the source's counters in Stats form.
func (m *meterSource) reading() Stats {
	return Stats{
		RoundTrips: m.trips, Failovers: m.fails, Hedges: m.hedges,
		AttestFailures: m.attestFails, ProofBytes: m.proofBytes,
		PageTouches: m.pageTouches, LocalHits: m.localHits,
	}
}

// capLocalitySource reports page locality only through the dynamic
// capability view (no static LocalityReporter methods), as a source
// wrapper lifting a mapped backend's capabilities does.
type capLocalitySource struct {
	*graph.Graph
	touches, hits uint64
}

func (c *capLocalitySource) Degree(v int) int {
	c.touches, c.hits = c.touches+1, c.hits+2
	return c.Graph.Degree(v)
}

func (c *capLocalitySource) Caps() source.Caps {
	return source.Caps{Locality: func() (uint64, uint64) { return c.touches, c.hits }}
}

// transportOnly clears the fields a Counter counts itself.
func transportOnly(s Stats) Stats {
	s.Neighbor, s.Degree, s.Adjacency, s.Batches = 0, 0, 0, 0
	return s
}

func TestCounterReadsTransportThroughEveryWrapper(t *testing.T) {
	stacks := []struct {
		name string
		wrap func(Oracle) Oracle
	}{
		{"bare", func(o Oracle) Oracle { return o }},
		{"caching", func(o Oracle) Oracle { return NewCaching(o) }},
		{"limit", func(o Oracle) Oracle { return NewLimit(o, 1<<20) }},
		{"limit-trips", func(o Oracle) Oracle { return NewLimitTrips(o, 1<<20) }},
		{"tiered", func(o Oracle) Oracle { return NewTiered(o, NewRowCache(8, EvictLRU)) }},
		{"recorder", func(o Oracle) Oracle { return NewRecorder(o) }},
		{"counter", func(o Oracle) Oracle { return NewCounter(o) }},
		{"limit/limit-trips/caching/tiered", func(o Oracle) Oracle {
			return NewLimit(NewLimitTrips(NewCaching(NewTiered(o, nil)), 1<<20), 1<<20)
		}},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			m := &meterSource{g: testGraph()}
			m.tick() // traffic before the Counter: its window starts after it
			c := NewCounter(st.wrap(m))
			before := m.reading()
			c.Degree(0)
			c.Neighbor(1, 1)
			c.Adjacency(3, 4)
			c.Neighbors(2)
			want := m.reading().Sub(before)
			if want.RoundTrips == 0 {
				t.Fatal("no probe reached the source")
			}
			if got := transportOnly(c.Stats()); got != want {
				t.Fatalf("Stats transport = %+v, source moved %+v", got, want)
			}
			if got := c.Stats(); got.Degree != 2 || got.Neighbor != 1+uint64(m.g.Degree(2)) ||
				got.Adjacency != 1 || got.Batches != 1 {
				t.Fatalf("cell counts = %+v", got)
			}
			c.Reset()
			if got := c.Stats(); got != (Stats{}) {
				t.Fatalf("after Reset: %+v", got)
			}
		})
	}
}

// TestCounterReadsDynamicLocality: page locality offered only through
// Caps.Locality reaches Stats as the static methods would.
func TestCounterReadsDynamicLocality(t *testing.T) {
	src := &capLocalitySource{Graph: testGraph()}
	if _, static := any(src).(source.LocalityReporter); static {
		t.Fatal("test source must report locality dynamically only")
	}
	c := NewCounter(NewCaching(NewLimit(src, 100)))
	c.Degree(0)
	c.Degree(1)
	if st := c.Stats(); st.PageTouches != 2 || st.LocalHits != 4 {
		t.Fatalf("PageTouches, LocalHits = %d, %d; want 2, 4", st.PageTouches, st.LocalHits)
	}
}

// TestWalkStopsAtOpaqueWrapper: a wrapper without Unwrap hides the chain
// below it; the walk reads only what it can reach.
func TestWalkStopsAtOpaqueWrapper(t *testing.T) {
	m := &meterSource{g: testGraph()}
	c := NewCounter(opaque{NewCaching(m)})
	c.Degree(0)
	if st := transportOnly(c.Stats()); st != (Stats{}) {
		t.Fatalf("transport read through an opaque wrapper: %+v", st)
	}
}

type opaque struct{ Oracle }
