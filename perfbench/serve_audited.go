package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lca"
	"lca/internal/rnd"
	"lca/internal/serve"
	"lca/internal/source"
)

// serve-audited: the HTTP query plane over an implicit circulant, one
// tenant whose budgets no query reaches, and the signed audit log written
// beside every answer. Per-query algorithm work is small, so routing,
// admission, answer encoding and the audit write dominate. The server
// builds a fresh instance per request, so work per query does not drift.
const (
	serveN     = 100_000_000
	serveDeg   = 8
	serveList  = 400_000
	serveWarm  = 300
	serveToken = "perfbench-token"
	serveKey   = "perfbench-audit-key"
)

// serveKinds are the query kinds, in list order: equal thirds.
var serveKinds = []struct{ kind, algo string }{
	{"vertex", "mis"},
	{"label", "coloring"},
	{"edge", "matching"},
}

type serveAudited struct {
	spec string
	seed uint64
}

func prepareServeAudited(seed uint64, _ string) (bench, []query, error) {
	spec := fmt.Sprintf("circulant:n=%d,d=%d,seed=%d", serveN, serveDeg, seed)
	src, err := source.Parse(spec, rnd.Seed(seed))
	if err != nil {
		return nil, nil, err
	}
	prg := rnd.NewPRG(rnd.Seed(seed).Derive(0x5e7))
	list := make([]query, serveWarm+serveList)
	for i := range list {
		k := i % len(serveKinds)
		v := prg.Intn(serveN)
		q := query{kind: int8(k), a: int32(v)}
		if serveKinds[k].kind == "edge" {
			q.b = int32(src.Neighbor(v, prg.Intn(serveDeg)))
		}
		list[i] = q
	}
	return &serveAudited{spec: spec, seed: seed}, list, nil
}

func (s *serveAudited) close() error { return nil }

func (s *serveAudited) setup(rec *recorder, first []query) (system, split, error) {
	var sp split
	t := time.Now()
	src, err := source.Parse(s.spec, rnd.Seed(s.seed))
	if err != nil {
		return nil, sp, err
	}
	sys := &serveSystem{audit: &auditSink{}}
	if rec != nil {
		shimmed, shim, err := newProbeShim(src)
		if err != nil {
			return nil, sp, err
		}
		src = shimmed
		sys.lay.sources = []*probeShim{shim}
		sys.audit.rec, sys.audit.slot = rec, &handlerSlot{}
	}
	tenant := serve.Tenant{Name: "perfbench", Token: serveToken,
		ProbeBudget: 1 << 40, RoundTripBudget: 1 << 40, QPS: 1e9, Burst: 1e9}
	srv := serve.NewFromSource(src, s.spec, lcaSeed, serve.WithTenants(tenant), serve.WithAuditLog(sys.audit, serveKey))
	sp.open = time.Since(t)

	t = time.Now()
	h := srv.Handler()
	if rec != nil {
		h = traceHandler(h, rec, sys.audit.slot)
	}
	lb, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, sp, err
	}
	sys.trips = &tripper{rec: rec}
	sys.client, sys.transport = newClient(sys.trips, 1)
	sys.base = lb.url
	sys.stop = func() error {
		sys.transport.CloseIdleConnections()
		err := lb.close()
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		return err
	}
	sp.listen = time.Since(t)

	t = time.Now()
	if _, err := answerAll(sys, first); err != nil {
		sys.close()
		return nil, sp, err
	}
	sp.first = time.Since(t)
	return sys, sp, nil
}

// reference answers every query on a fresh Session over the same spec
// and seed: the server builds a fresh instance per request, and a
// Session-held instance would memoize answers across queries.
func (s *serveAudited) reference(qs []query) ([]result, error) {
	src, err := source.Parse(s.spec, rnd.Seed(s.seed))
	if err != nil {
		return nil, err
	}
	out := make([]result, len(qs))
	for i, q := range qs {
		sess := lca.NewSessionFromSource(src, lca.WithSeed(lcaSeed))
		k := serveKinds[q.kind]
		var ans int64
		var in bool
		switch k.kind {
		case "vertex":
			in, err = sess.Vertex(k.algo, int(q.a))
		case "label":
			var l int
			l, err = sess.Label(k.algo, int(q.a))
			ans = int64(l)
		case "edge":
			in, err = sess.Edge(k.algo, int(q.a), int(q.b))
		}
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		if in {
			ans = 1
		}
		st, err := sess.ProbeStats(k.algo)
		if err != nil {
			return nil, err
		}
		out[i] = result{ans: ans, probes: st.Total()}
	}
	return out, nil
}

// serveSystem is a client of one loopback query server.
type serveSystem struct {
	base      string
	client    *http.Client
	transport *http.Transport
	trips     *tripper
	audit     *auditSink
	lay       layerSet
	stop      func() error
}

// serveAnswer holds the fields of the vertex, label and edge answers the
// benchmark checks.
type serveAnswer struct {
	In     bool   `json:"in"`
	Label  int    `json:"label"`
	Probes uint64 `json:"probes"`
}

func (s *serveSystem) do(q query) (result, error) {
	k := serveKinds[q.kind]
	url := s.base + "/" + k.kind + "/" + k.algo + "?"
	if k.kind == "edge" {
		url += "u=" + strconv.Itoa(int(q.a)) + "&v=" + strconv.Itoa(int(q.b))
	} else {
		url += "v=" + strconv.Itoa(int(q.a))
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return result{}, err
	}
	req.Header.Set(serve.TokenHeader, serveToken)
	audit0 := s.audit.bytes.Load()
	resp, err := s.client.Do(req)
	if err != nil {
		return result{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return result{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return result{}, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	var a serveAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return result{}, err
	}
	r := result{ans: int64(a.Label), probes: a.Probes, auditBytes: s.audit.bytes.Load() - audit0}
	if a.In {
		r.ans = 1
	}
	return r, nil
}

func (s *serveSystem) layers() layerSet { return s.lay }

func (s *serveSystem) close() error { return s.stop() }
