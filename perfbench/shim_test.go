package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"lca"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/rnd"
	"lca/internal/source"
)

// testCSR writes a small G(n, p) as a CSR file and returns it with its
// path.
func testCSR(t *testing.T) (*graph.Graph, string) {
	t.Helper()
	g := gen.Gnp(400, 0.08, 5)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := writeCSR(path, g); err != nil {
		t.Fatal(err)
	}
	return g, path
}

func openSpec(t *testing.T, spec string) source.Source {
	t.Helper()
	src, err := lca.OpenSource(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSource(src) })
	return src
}

// capsPresent lists which optional capabilities src shows through the
// accessors, plus the static LocalityReporter the oracle counters use.
func capsPresent(src source.Source) map[string]bool {
	_, ec := source.EdgeCounterOf(src)
	_, db := source.DegreeBounderOf(src)
	_, re := source.RandomEdgerOf(src)
	_, rf := source.RowFetcherOf(src)
	_, he := source.HealthOf(src)
	_, at := source.AttestorOf(src)
	_, lo := source.LocalityOf(src)
	_, static := src.(source.LocalityReporter)
	return map[string]bool{"edges": ec, "maxdeg": db, "randomedge": re, "rowfull": rf,
		"health": he, "attest": at, "locality": lo, "locality-static": static}
}

func TestProbeShimForwardsCapabilities(t *testing.T) {
	_, path := testCSR(t)
	specs := []string{"csr:" + path + "?mmap=1", "csr:" + path, "circulant:n=1e6,d=8", "ring:n=1000"}
	for _, spec := range specs {
		src := openSpec(t, spec)
		shimmed, _, err := newProbeShim(src)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := capsPresent(shimmed), capsPresent(src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shimmed capabilities %v, want %v", spec, got, want)
		}
		if ec, ok := source.EdgeCounterOf(src); ok {
			sec, _ := source.EdgeCounterOf(shimmed)
			if sec.M() != ec.M() {
				t.Errorf("%s: M = %d through the shim, want %d", spec, sec.M(), ec.M())
			}
		}
		if db, ok := source.DegreeBounderOf(src); ok {
			sdb, _ := source.DegreeBounderOf(shimmed)
			if sdb.MaxDegree() != db.MaxDegree() {
				t.Errorf("%s: MaxDegree = %d through the shim, want %d", spec, sdb.MaxDegree(), db.MaxDegree())
			}
		}
	}
}

// TestProbeShimSameAnswersAndCounts runs the same queries on a plain and a
// shimmed source: answers and every probe statistic, locality included,
// must agree, and the shim must see every probe the Session counts.
func TestProbeShimSameAnswersAndCounts(t *testing.T) {
	g, path := testCSR(t)
	edges := randomEdges(g, 9, 60)
	spec := "csr:" + path + "?mmap=1"
	run := func(shim bool) ([]bool, []bool, lca.ProbeStats, lca.ProbeStats, *probeShim) {
		src := openSpec(t, spec)
		var ps *probeShim
		if shim {
			var err error
			src, ps, err = newProbeShim(src)
			if err != nil {
				t.Fatal(err)
			}
		}
		sess := lca.NewSessionFromSource(src, lca.WithSeed(lcaSeed))
		var spans, mis []bool
		for _, e := range edges {
			in, err := sess.Edge("spanner3", int(e.a), int(e.b))
			if err != nil {
				t.Fatal(err)
			}
			spans = append(spans, in)
			v, err := sess.Vertex("mis", int(e.a))
			if err != nil {
				t.Fatal(err)
			}
			mis = append(mis, v)
		}
		st3, _ := sess.ProbeStats("spanner3")
		stm, _ := sess.ProbeStats("mis")
		return spans, mis, st3, stm, ps
	}
	spans0, mis0, st30, stm0, _ := run(false)
	spans1, mis1, st31, stm1, ps := run(true)
	if !reflect.DeepEqual(spans0, spans1) || !reflect.DeepEqual(mis0, mis1) {
		t.Fatal("answers differ with the shim")
	}
	if st30 != st31 || stm0 != stm1 {
		t.Fatalf("probe stats differ with the shim:\n%+v\n%+v\n%+v\n%+v", st30, st31, stm0, stm1)
	}
	if st30.PageTouches == 0 {
		t.Fatal("the mmap source reported no locality through the Session")
	}
	// Each Edge query also spends one uncounted Adjacency probe checking
	// that (u,v) is an input edge.
	c := ps.counts()
	if want := st30.Total() + stm0.Total() + uint64(len(edges)); c.probes() != want {
		t.Errorf("shim saw %d probes, want %d", c.probes(), want)
	}
	if c.busy <= 0 || c.pageTouches == 0 {
		t.Errorf("shim counts %+v lack time or locality", c)
	}
}

func TestAttestShim(t *testing.T) {
	_, path := testCSR(t)
	src := openSpec(t, "csr:"+path+"?mmap=1")
	plain := source.NewAttested(src)
	shimmed, _, err := newProbeShim(openSpec(t, "csr:"+path+"?mmap=1"))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	slot := &handlerSlot{}
	as, err := newAttestShim(source.NewAttested(shimmed), rec, slot)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := capsPresent(as), capsPresent(plain); !reflect.DeepEqual(got, want) {
		t.Errorf("attest shim capabilities %v, want %v", got, want)
	}
	at, ok := source.AttestorOf(as)
	if !ok {
		t.Fatal("attest shim lost the Attestor capability")
	}
	if at.Commitment() != plain.Commitment() {
		t.Fatal("commitment differs through the shims")
	}
	slot.set(7, 3)
	row, proof := at.ProveRow(11)
	wantRow, wantProof := plain.ProveRow(11)
	if !reflect.DeepEqual(row, wantRow) || !reflect.DeepEqual(proof, wantProof) {
		t.Fatal("ProveRow differs through the shim")
	}
	spans := rec.snapshot()
	if len(spans) != 1 || spans[0].Name != "prove" || spans[0].Query != 7 || spans[0].Parent != 3 || spans[0].End < spans[0].Start {
		t.Fatalf("spans = %+v, want one prove span under span 3 of query 7", spans)
	}
}

// tripCounting is a source with a transport capability.
type tripCounting struct{ source.Source }

func (tripCounting) RoundTrips() uint64 { return 0 }

func TestShimsRefuseTransportSources(t *testing.T) {
	src := tripCounting{source.Ring(10)}
	if _, _, err := newProbeShim(src); err == nil {
		t.Error("probe shim wrapped a source with round trips")
	}
	if _, err := newAttestShim(src, newRecorder(), &handlerSlot{}); err == nil {
		t.Error("attest shim wrapped a source with round trips")
	}
	if _, err := newAttestShim(source.Ring(10), newRecorder(), &handlerSlot{}); err == nil {
		t.Error("attest shim wrapped a source without a commitment")
	}
}

func TestRandomEdgesDeterministic(t *testing.T) {
	g := gen.Gnp(200, 0.1, rnd.Seed(4))
	a, b := randomEdges(g, 4, 50), randomEdges(g, 4, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different query lists")
	}
	for _, q := range a {
		if g.Adjacency(int(q.a), int(q.b)) < 0 {
			t.Fatalf("(%d,%d) is not an edge", q.a, q.b)
		}
	}
}
