package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lca"
	"lca/internal/gen"
	"lca/internal/rnd"
	"lca/internal/serve"
	"lca/internal/source"
)

// fleet-attested: maximal-matching edge queries, each on a fresh
// prefetching Session over a sharded client of two loopback replicas, each
// serving an attested mmap CSR file, each remote pinned to its commitment.
// Codec, transport, routing, prefetch batching and proofs do the work
// here; the local source does almost none. A Session keeps its matching
// instance, which memoizes answers, so one Session's cost per query would
// fall over a run; a fresh one per query keeps the work per query, and its
// round trips, a function of the query alone.
const (
	fleetAlgo   = "matching"
	fleetN      = 100_000
	fleetAvgDeg = 8
	fleetShards = 2
	fleetList   = 100_000
	fleetWarm   = 100
)

type fleetAttested struct{ path string }

func prepareFleetAttested(seed uint64, dir string) (bench, []query, error) {
	g := gen.Gnp(fleetN, fleetAvgDeg/float64(fleetN-1), rnd.Seed(seed))
	path := filepath.Join(dir, fmt.Sprintf("fleet-attested-%d.csr", seed))
	if err := writeCSR(path, g); err != nil {
		return nil, nil, err
	}
	return &fleetAttested{path: path}, randomEdges(g, seed, fleetWarm+fleetList), nil
}

func (f *fleetAttested) close() error { return os.Remove(f.path) }

func (f *fleetAttested) spec() string { return "csr:" + f.path + "?mmap=1" }

func (f *fleetAttested) setup(rec *recorder, first []query) (system, split, error) {
	var sp split
	sys := &sessionSystem{algo: fleetAlgo}
	var servers []*serve.Server
	var lbs []*loopback
	stop := func() error {
		var err error
		for _, lb := range lbs {
			if cerr := lb.close(); err == nil {
				err = cerr
			}
		}
		for _, srv := range servers {
			if cerr := srv.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	fail := func(err error) (system, split, error) {
		stop()
		return nil, sp, err
	}

	var shards []source.Source
	var slots []*handlerSlot // each shard's handler span, read by its attest shim
	for i := 0; i < fleetShards; i++ {
		t := time.Now()
		src, err := lca.OpenSource(f.spec(), lcaSeed)
		if err != nil {
			return fail(err)
		}
		if rec != nil {
			shimmed, shim, err := newProbeShim(src)
			if err != nil {
				closeSource(src)
				return fail(err)
			}
			src = shimmed
			sys.lay.sources = append(sys.lay.sources, shim)
		}
		sp.open += time.Since(t)
		t = time.Now()
		var att source.Source = source.NewAttested(src)
		sp.commit += time.Since(t)
		slot := &handlerSlot{}
		slots = append(slots, slot)
		if rec != nil {
			shimmed, err := newAttestShim(att, rec, slot)
			if err != nil {
				closeSource(att)
				return fail(err)
			}
			att = shimmed
		}
		shards = append(shards, att)
		servers = append(servers, serve.NewFromSource(att, f.spec(), lcaSeed))
	}

	t := time.Now()
	for i, srv := range servers {
		h := srv.Handler()
		if rec != nil {
			h = traceHandler(h, rec, slots[i])
		}
		lb, err := listen(h)
		if err != nil {
			return fail(err)
		}
		lbs = append(lbs, lb)
	}
	sys.lay.trips = &tripper{rec: rec}
	client, transport := newClient(sys.lay.trips, 0)
	var remotes []source.Source
	closeRemotes := func() {
		for _, r := range remotes {
			closeSource(r)
		}
	}
	for i, lb := range lbs {
		at, _ := source.AttestorOf(shards[i])
		r, err := source.OpenRemote(lb.url+"#root="+at.Commitment().String(), source.WithHTTPClient(client))
		if err != nil {
			closeRemotes()
			return fail(err)
		}
		remotes = append(remotes, r)
	}
	fleet, err := source.NewSharded(remotes)
	if err != nil {
		closeRemotes()
		return fail(err)
	}
	sys.newSession = func() *lca.Session {
		return lca.NewSessionFromSource(fleet, lca.WithSeed(lcaSeed), lca.WithPrefetch(true))
	}
	sys.sess = sys.newSession()
	sys.stop = func() error {
		transport.CloseIdleConnections()
		return stop()
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

// reference answers on a fresh Session per query over the local CSR file,
// no prefetch.
func (f *fleetAttested) reference(qs []query) ([]result, error) {
	src, err := lca.OpenSource(f.spec(), lcaSeed)
	if err != nil {
		return nil, err
	}
	sys := &sessionSystem{algo: fleetAlgo, newSession: func() *lca.Session { return lca.NewSessionFromSource(src, lca.WithSeed(lcaSeed)) }}
	sys.sess = sys.newSession()
	defer sys.close()
	return answerAll(sys, qs)
}
