package serve

// Tests for the answer layout and the audit tier's place in the Unwrap
// walk: the embedded stats and trace blocks must encode exactly as the
// flat field lists did, and a Counter above the audit recorder must read
// the transport figures of the chain under it.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"lca/internal/oracle"
	"lca/internal/source"
	"lca/internal/trace"
)

// TestAnswerBytesPinned: every field of every answer kind, in the order
// and spelling clients parse.
func TestAnswerBytesPinned(t *testing.T) {
	st := statsBlock(oracle.Stats{
		Neighbor: 4, Degree: 2, Adjacency: 1, Batches: 9,
		RoundTrips: 2, Failovers: 3, Hedges: 4, AttestFailures: 5, ProofBytes: 99,
		RemainderTrips: 6, FetchWidth: 64, PageTouches: 7, LocalHits: 8,
	})
	tr := answerTrace{TraceID: "t1", Trace: []trace.Span{{ID: 1, Op: "query:edge", Target: 3, Duration: 5}}}
	const spans = `[{"id":1,"op":"query:edge","target":3,"start_us":0,"duration_us":5}]`
	block := `"probes":7,"round_trips":2,"failovers":3,"hedges":4,"attest_failures":5,` +
		`"remainder_trips":6,"page_touches":7,"local_hits":8,"trace_id":"t1","trace":` + spans
	for _, c := range []struct {
		ans  any
		want string
	}{
		{edgeAnswer{Algo: "spanner3", U: 3, V: 4, In: true, answerStats: st, answerTrace: tr},
			`{"algo":"spanner3","u":3,"v":4,"in":true,` + block + `}`},
		{vertexAnswer{Algo: "mis", V: 7, answerStats: st, answerTrace: tr},
			`{"algo":"mis","v":7,"in":false,` + block + `}`},
		{labelAnswer{Algo: "coloring", V: 9, Label: 2, answerStats: st, answerTrace: tr},
			`{"algo":"coloring","v":9,"label":2,` + block + `}`},
		{vertexAnswer{Algo: "mis", V: 7}, `{"algo":"mis","v":7,"in":false,"probes":0}`},
		{estimateAnswer{Algo: "mis", Kind: "vertex", Fraction: 0.5, ErrorBound: 0.1, Samples: 10, answerTrace: tr},
			`{"algo":"mis","kind":"vertex","fraction":0.5,"error_bound":0.1,"samples":10,"trace_id":"t1","trace":` + spans + `}`},
	} {
		got, err := json.Marshal(c.ans)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T encodes as\n%s\nwant\n%s", c.ans, got, c.want)
		}
	}
}

// TestServedAnswerBytesPinned pins served bodies byte for byte: a local
// edge answer, and remote-backed prefetching vertex and label answers
// whose round trips travel through the Unwrap walk.
func TestServedAnswerBytesPinned(t *testing.T) {
	ring := httptest.NewServer(NewFromSource(source.Ring(60), "ring:n=60", 42).Handler())
	defer ring.Close()
	shard := httptest.NewServer(NewFromSource(mustParse(t, "circulant:n=400,d=6"), "circulant:n=400,d=6", 42).Handler())
	defer shard.Close()
	front := NewFromSource(mustParse(t, "remote:"+shard.URL), "remote", 42)
	defer front.Close()
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()
	for _, c := range []struct{ url, want string }{
		{ring.URL + "/edge/spanner3?u=3&v=4", `{"algo":"spanner3","u":3,"v":4,"in":true,"probes":2}` + "\n"},
		{fts.URL + "/vertex/mis?v=7&prefetch=1", `{"algo":"mis","v":7,"in":false,"probes":14,"round_trips":2}` + "\n"},
		{fts.URL + "/label/coloring?v=9&prefetch=1", `{"algo":"coloring","v":9,"label":1,"probes":35,"round_trips":5}` + "\n"},
	} {
		resp, err := http.Get(c.url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != c.want {
			t.Errorf("GET %s =\n%q\nwant\n%q", c.url, body, c.want)
		}
	}
}

// TestAuditTierUnwraps: a Counter above the audit recorder reads the
// round trips, remainder trips and width of the prefetching, budgeted
// chain under it, the same figures a Counter directly on the chain reads.
func TestAuditTierUnwraps(t *testing.T) {
	shard := httptest.NewServer(NewFromSource(mustParse(t, "circulant:n=400,d=6"), "circulant:n=400,d=6", 42).Handler())
	defer shard.Close()
	src := mustParse(t, "remote:"+shard.URL)
	if c, ok := src.(source.Closer); ok {
		defer c.Close()
	}
	rt := src.(source.RoundTripCounter)
	// Without the rowfull capability the tier speculates 2 cells a row,
	// so rows of 6 cost remainder trips.
	p := oracle.NewPrefetch(noRowFull{src, src.(source.BatchProber), rt}, oracle.WithFetchWidth(2))
	chain := oracle.NewLimit(oracle.NewLimitTrips(p, 1<<20), 1<<20)
	under := oracle.NewCounter(chain)
	c := oracle.NewCounter(newAuditOracle(chain))
	trips0 := rt.RoundTrips()
	for v := 0; v < 5; v++ {
		c.Neighbors(v)
		c.Adjacency(v, v+1)
	}
	got := c.Stats()
	if got.RoundTrips == 0 || got.RoundTrips != rt.RoundTrips()-trips0 {
		t.Fatalf("Stats.RoundTrips = %d through the audit tier, source moved %d", got.RoundTrips, rt.RoundTrips()-trips0)
	}
	if got.RemainderTrips == 0 || got.RemainderTrips != p.RemainderTrips() || got.FetchWidth != 2 {
		t.Fatalf("prefetch figures through the audit tier: remainder %d (tier %d), width %d",
			got.RemainderTrips, p.RemainderTrips(), got.FetchWidth)
	}
	direct := under.Stats()
	direct.Neighbor, direct.Degree, direct.Adjacency, direct.Batches = got.Neighbor, got.Degree, got.Adjacency, got.Batches
	if direct != got {
		t.Fatalf("audit-tier Counter %+v, chain Counter %+v", got, direct)
	}
}

// noRowFull presents a remote source with batching and round-trip
// counting but without its dynamic capabilities (rowfull among them).
type noRowFull struct {
	source.Source
	source.BatchProber
	source.RoundTripCounter
}
