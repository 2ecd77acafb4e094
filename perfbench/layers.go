package main

// layerMetrics derives the per-layer split of a traced run. a is the
// untraced phase (runtime, set-up and count figures come from it, so
// tracing cannot distort them); t is the traced phase, whose spans give
// every time split. Layers a workload does not have read 0: that is the
// prediction for a layer that carries no work there.
func layerMetrics(w workload, a, t *phase, spans []span, sp split, rep *report) map[string]metric {
	children := map[int32][]*span{}
	var queries []*span
	for i := range spans {
		s := &spans[i]
		if s.Query < int32(t.warm) {
			continue // set-up and warm-up traffic
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.Name == "query" {
			queries = append(queries, s)
		}
	}
	intervals := func(ss []*span, name string) []interval {
		var out []interval
		for _, s := range ss {
			if s.Name == name {
				out = append(out, s.interval())
			}
		}
		return out
	}
	dur := func(s *span) int64 { return s.End - s.Start }

	var queryNs, lcaSelfNs, transportNs, proveNs, auditNs, handlerBytes int64
	var rtDurs, handlerDurs []int64
	for _, q := range queries {
		queryNs += dur(q)
		var handlers []*span
		for _, rt := range children[q.ID] {
			if rt.Name != "rt" {
				continue
			}
			rtDurs = append(rtDurs, dur(rt))
			for _, h := range children[rt.ID] {
				if h.Name != "handler" {
					continue
				}
				handlers = append(handlers, h)
				transportNs += dur(rt) - dur(h)
			}
		}
		for _, h := range handlers {
			handlerDurs = append(handlerDurs, dur(h))
			handlerBytes += h.Bytes
			for _, c := range children[h.ID] {
				switch c.Name {
				case "prove":
					proveNs += dur(c)
				case "audit":
					auditNs += dur(c)
				}
			}
		}
		// The algorithm's own time: the span it runs in, minus its traced
		// children (round trips, audit writes) and, where the source
		// answers on the same goroutine, the source's busy time below.
		if w.queryPlane {
			for _, h := range handlers {
				lcaSelfNs += selfTime(h.interval(), intervals(children[h.ID], "audit"))
			}
		} else {
			lcaSelfNs += selfTime(q.interval(), intervals(children[q.ID], "rt"))
		}
	}
	if w.clientSource {
		lcaSelfNs -= t.sources.busy
	}

	n := float64(len(queries))
	if n == 0 {
		n = 1
	}
	rts := float64(max(len(rtDurs), 1))
	perQ := func(x float64) float64 { return x / n }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	q := func(xs []int64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return us(quantile(sortedCopy(xs), p))
	}
	src := t.sources
	var nsPerProbe, selfShare float64
	if src.probes() > 0 {
		nsPerProbe = float64(src.busy) / float64(src.probes())
	}
	if queryNs > 0 {
		selfShare = float64(src.busy) / float64(queryNs)
	}
	var loopbackNs int64
	if w.queryPlane {
		loopbackNs = queryNs - sumDur(handlerDurs)
	} else {
		loopbackNs = transportNs
	}
	c := pinnedSums(a)
	pc := func(x uint64) float64 { return float64(x) / float64(a.pinned) }
	// Trip and byte counts of the traced phase itself, over its pinned
	// queries (asserted equal to a's).
	tc := pinnedSums(t)
	tn := float64(t.pinned)
	an := float64(a.timed())
	p50a, p50t := quantile(sortedCopy(a.lat), 0.5), quantile(sortedCopy(t.lat), 0.5)
	qpsA, qpsT := an/a.elapsed.Seconds(), float64(t.timed())/t.elapsed.Seconds()

	m := map[string]metric{
		"source.degree_per_query":          {perQ(float64(src.degree)), "count"},
		"source.neighbor_per_query":        {perQ(float64(src.neighbor)), "count"},
		"source.adjacency_per_query":       {perQ(float64(src.adjacency)), "count"},
		"source.ns_per_probe":              {nsPerProbe, "ns"},
		"source.self_share":                {selfShare, "ratio"},
		"source.page_touches_per_query":    {perQ(float64(src.pageTouches)), "count"},
		"source.local_hits_per_query":      {perQ(float64(src.localHits)), "count"},
		"lca.self_us_per_query":            {perQ(us(lcaSelfNs)), "us"},
		"oracle.batches_per_query":         {pc(c.batches), "count"},
		"oracle.remainder_trips_per_query": {pc(c.remainders), "count"},
		"remote.rt_per_query":              {float64(tc.roundTrips) / tn, "count"},
		"remote.rt_us_p50":                 {q(rtDurs, 0.5), "us"},
		"remote.rt_us_p99":                 {q(rtDurs, 0.99), "us"},
		"remote.req_bytes_per_query":       {float64(tc.reqBytes) / tn, "B"},
		"remote.resp_bytes_per_query":      {float64(tc.respBytes) / tn, "B"},
		"remote.transport_us_per_rt":       {us(transportNs) / rts, "us"},
		"sharded.failovers_per_query":      {pc(c.failovers), "count"},
		"sharded.hedges_per_query":         {pc(c.hedges), "count"},
		"serve.handler_us_p50":             {q(handlerDurs, 0.5), "us"},
		"serve.handler_us_p99":             {q(handlerDurs, 0.99), "us"},
		"serve.loopback_us_per_query":      {perQ(us(loopbackNs)), "us"},
		"serve.resp_bytes_per_query":       {perQ(float64(handlerBytes)), "B"},
		"shard.handler_us_per_rt":          {0, "us"},
		"audit.bytes_per_query":            {pc(c.auditBytes), "B"},
		"audit.write_us_per_query":         {perQ(us(auditNs)), "us"},
		"attest.prove_us_per_rt":           {0, "us"},
		"attest.proof_bytes_per_query":     {pc(c.proofBytes), "B"},
		"attest.failures_per_query":        {pc(c.attestFails), "count"},
		"attest.commit_s":                  {sp.commit.Seconds(), "s"},
		"runtime.allocs_per_query":         {float64(a.mallocs) / an, "count"},
		"runtime.alloc_bytes_per_query":    {float64(a.allocBytes) / an, "B"},
		"runtime.gc_per_1k_queries":        {float64(a.gcs) * 1000 / an, "count"},
		"runtime.cpu_us_per_query":         {us(int64(a.cpu)) / an, "us"},
		"setup.open_s":                     {sp.open.Seconds(), "s"},
		"setup.listen_s":                   {sp.listen.Seconds(), "s"},
		"setup.first_query_s":              {sp.first.Seconds(), "s"},
		"round_trips_per_query":            {pc(c.roundTrips), "trips"},
		"wire_bytes_per_query":             {pc(c.reqBytes + c.respBytes), "B"},
		"error_rate":                       {float64(rep.Failed) / float64(max(rep.Attempted, 1)), "ratio"},
		"trace.p50_overhead_pct":           {(float64(p50t)/float64(p50a) - 1) * 100, "%"},
		"trace.qps_overhead_pct":           {(qpsA/qpsT - 1) * 100, "%"},
		"trace.queries":                    {float64(len(queries)), "count"},
		"trace.round_trips":                {float64(len(rtDurs)), "count"},
		"trace.handlers":                   {float64(len(handlerDurs)), "count"},
	}
	if w.queryPlane {
		// The round trips here are the query plane's own requests, already
		// split into handler and loopback; no probe wire is behind them.
		for _, k := range []string{"remote.rt_us_p50", "remote.rt_us_p99", "remote.transport_us_per_rt"} {
			m[k] = metric{0, "us"}
		}
	} else if len(handlerDurs) > 0 {
		m["shard.handler_us_per_rt"] = metric{us(sumDur(handlerDurs)) / rts, "us"}
		m["attest.prove_us_per_rt"] = metric{us(proveNs) / rts, "us"}
	}
	return m
}

func sumDur(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
