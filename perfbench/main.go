// Command perfbench is the repository's benchmark. One run sets up one
// workload, answers its query list in a closed loop with one query in
// flight for a fixed time, checks every answer and probe count against a
// reference backend, and prints its metrics as the last line of standard
// output:
//
//	go build -o perfbench . && ./perfbench -workload spanner-local -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, exact latency quantiles, probes per query, peak RSS). With
// -trace 1 the run measures twice, untraced and then with shims,
// middleware and a RoundTripper recording spans at every layer boundary,
// asserts that both runs gave identical answers and per-query counts, and
// prints the per-layer split. NOTES.md describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// lcaSeed is the LCA seed every workload's system runs under: fixed
// configuration, not an input. The workload seed drives the inputs.
const lcaSeed = 2019

// query is one entry of a workload's query list; kind indexes the
// workload's query kinds.
type query struct {
	kind int8
	a, b int32
}

// result is one answered query: the answer and the counts the layers
// below reported for it.
type result struct {
	failed bool
	ans    int64
	probes uint64

	roundTrips, batches, remainders, failovers, hedges uint64
	attestFails, proofBytes                            uint64
	reqBytes, respBytes, auditBytes                    uint64
}

// split is one set-up's time by step.
type split struct {
	open, commit, listen, first time.Duration
}

func (s split) total() time.Duration { return s.open + s.commit + s.listen + s.first }

// layerSet names the instrumented layers of a system; empty fields are
// layers the system does not have or that run untraced.
type layerSet struct {
	sources []*probeShim
	trips   *tripper
}

// system is one set-up workload, answering queries until closed.
type system interface {
	do(q query) (result, error)
	layers() layerSet
	close() error
}

// bench is one workload's generated inputs, apart from the query list.
type bench interface {
	// setup brings the system up and answers first, one warm-up query
	// per kind; a non-nil recorder installs the tracing shims.
	setup(rec *recorder, first []query) (system, split, error)
	// reference answers qs on the reference backend.
	reference(qs []query) ([]result, error)
	// close removes the generated input files.
	close() error
}

// workload is one named traffic shape.
type workload struct {
	name string
	// kinds is the number of query kinds, which the list cycles through.
	kinds int
	// warm is the length of the list's untimed warm-up prefix.
	warm int
	// pinned is the fewest timed queries a run answers, however long that
	// takes; at least 1000, so p99 has ten samples beyond it. The
	// per-query counts are means over exactly this prefix of the timed
	// queries, so they are a pure function of the workload seed. It is
	// sized to what a run answers in about 20 seconds: the more queries,
	// the less the mean depends on which ones the seed drew.
	pinned int
	// setupReps is how many times a run sets the system up; setup_s is
	// the median. Each set-up answers its own warm-up queries, so cheap
	// set-ups repeat more often to steady the median of those answers.
	// The first half run before the timed phase, the rest after it.
	setupReps int
	// queryPlane is set when the algorithm runs inside a served query
	// handler rather than on the client's goroutine.
	queryPlane bool
	// clientSource is set when the probed source answers on the
	// algorithm's own goroutine (no round trip between them).
	clientSource bool
	// oneProc runs the workload with GOMAXPROCS=1. A sharded fan-out
	// sends to both shards at once, two requests in flight; where two
	// vCPUs behave as one core, waking the second costs a variable delay.
	// On one P the shards' handlers take turns on one thread instead.
	oneProc bool
	// prepare generates the inputs from the workload seed: the bench and
	// the fixed, ordered query list, warm-up prefix first.
	prepare func(seed uint64, dir string) (bench, []query, error)
}

var workloads = []workload{
	{name: "spanner-local", kinds: 1, warm: spannerWarm, pinned: 2000, setupReps: 100, clientSource: true, prepare: prepareSpannerLocal},
	{name: "serve-audited", kinds: len(serveKinds), warm: serveWarm, pinned: 20000, setupReps: 400, queryPlane: true, clientSource: true, prepare: prepareServeAudited},
	{name: "fleet-attested", kinds: 1, warm: fleetWarm, pinned: 8000, setupReps: 15, oneProc: true, prepare: prepareFleetAttested},
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: spanner-local, serve-audited or fleet-attested")
		seed    = flag.Uint64("seed", 1, "workload seed: drives the graph and the query list")
		seconds = flag.Int("seconds", 20, "length of each timed phase")
		traced  = flag.Int("trace", 0, "1 adds a traced phase and prints per-layer metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for generated inputs and span files")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload spanner-local|serve-audited|fleet-attested, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail, rep, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(detail); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(rep); err != nil {
		os.Exit(1)
	}
}

// answer is what every query keeps for the correctness check.
type answer struct {
	ans    int64
	probes uint64
	failed bool
}

// phase is one timed closed-loop pass over the query list.
type phase struct {
	answers []answer // warm-up prefix, then timed queries
	counts  []result // warm-up prefix and pinned timed queries, in full
	warm    int
	pinned  int     // leading timed queries the counts are taken over
	lat     []int64 // per timed query, ns
	elapsed time.Duration

	mallocs, allocBytes, gcs uint64
	cpu                      time.Duration
	sources                  shimCounts
	// peakKiB is the process's peak RSS when the pinned prefix was done:
	// a peak over a fixed set of queries, however fast they ran.
	peakKiB int64
}

// newPhase returns an empty phase for a list of n queries, its buffers
// sized up front and held off the Go heap.
func newPhase(mem *arena, n, warm, pinned int) (*phase, error) {
	answers, err := alloc[answer](mem, n)
	if err != nil {
		return nil, err
	}
	counts, err := alloc[result](mem, warm+pinned)
	if err != nil {
		return nil, err
	}
	lat, err := alloc[int64](mem, n-warm)
	if err != nil {
		return nil, err
	}
	return &phase{answers: answers[:0], counts: counts[:0], lat: lat[:0], warm: warm, pinned: pinned}, nil
}

func (p *phase) timed() int { return len(p.answers) - p.warm }

func (p *phase) record(r result, err error) {
	r.failed = err != nil
	p.answers = append(p.answers, answer{r.ans, r.probes, r.failed})
	if len(p.counts) < p.warm+p.pinned {
		p.counts = append(p.counts, r)
	}
}

// drive answers the warm-up prefix untimed, then the list in order, one
// query in flight, until d has passed and at least p.pinned timed queries
// are done.
func drive(p *phase, sys system, list []query, d time.Duration, rec *recorder) error {
	warm, pinned := p.warm, p.pinned
	for _, q := range list[:warm] {
		p.record(sys.do(q))
	}
	lay := sys.layers()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	src0 := sumShims(lay.sources)
	start := time.Now()
	for i := warm; i < len(list); i++ {
		if i-warm >= pinned && time.Since(start) >= d {
			break
		}
		if rec != nil {
			rec.beginQuery(i)
		}
		t0 := time.Now()
		r, err := sys.do(list[i])
		lat := time.Since(t0)
		if rec != nil {
			rec.endQuery()
		}
		p.record(r, err)
		p.lat = append(p.lat, int64(lat))
		if p.timed() == pinned {
			var perr error
			if p.peakKiB, perr = procStatusKiB("VmHWM"); perr != nil {
				return perr
			}
		}
	}
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = uint64(ms1.NumGC - ms0.NumGC)
	p.sources = sumShims(lay.sources).sub(src0)
	if p.timed() < pinned {
		return fmt.Errorf("query list exhausted after %d timed queries", p.timed())
	}
	return nil
}

func sumShims(shims []*probeShim) shimCounts {
	var c shimCounts
	for _, s := range shims {
		c = c.add(s.counts())
	}
	return c
}

// setupTimes collects the step times of every set-up in a run.
type setupTimes struct{ total, open, commit, listen, first []float64 }

func (st *setupTimes) add(sp split) {
	st.total = append(st.total, sp.total().Seconds())
	st.open = append(st.open, sp.open.Seconds())
	st.commit = append(st.commit, sp.commit.Seconds())
	st.listen = append(st.listen, sp.listen.Seconds())
	st.first = append(st.first, sp.first.Seconds())
}

// medians returns the median of each step.
func (st *setupTimes) medians() split {
	med := func(xs []float64) time.Duration { return time.Duration(median(xs) * float64(time.Second)) }
	return split{open: med(st.open), commit: med(st.commit), listen: med(st.listen), first: med(st.first)}
}

// setUp brings b's system up once for each set-up index in [from, to),
// closing all but the last, which it returns. Set-up i answers the i-th
// group of kinds warm-up queries, so the median spans many first answers
// rather than repeating one.
func setUp(b bench, list []query, kinds, from, to int, st *setupTimes) (system, error) {
	var sys system
	for i := from; i < to; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var sp split
		var err error
		sys, sp, err = b.setup(nil, list[i*kinds:(i+1)*kinds])
		if err != nil {
			return nil, err
		}
		st.add(sp)
	}
	return sys, nil
}

// check counts the queries of p that failed or whose answer or probe count
// differs from the reference.
func check(p *phase, ref []result) (failed int) {
	for i, r := range p.answers {
		if r.failed || r.ans != ref[i].ans || r.probes != ref[i].probes {
			if failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: query %d: failed=%v answer %d probes %d, reference answer %d probes %d\n",
					i, r.failed, r.ans, r.probes, ref[i].ans, ref[i].probes)
			}
			failed++
		}
	}
	return failed
}

// pinnedSums returns the sums of the counts over the first p.pinned
// timed queries.
func pinnedSums(p *phase) result {
	var s result
	for _, r := range p.counts[p.warm:] {
		s.probes += r.probes
		s.roundTrips += r.roundTrips
		s.batches += r.batches
		s.remainders += r.remainders
		s.failovers += r.failovers
		s.hedges += r.hedges
		s.attestFails += r.attestFails
		s.proofBytes += r.proofBytes
		s.reqBytes += r.reqBytes
		s.respBytes += r.respBytes
		s.auditBytes += r.auditBytes
	}
	return s
}

// digest hashes the answers of the warm-up prefix and the first p.pinned
// timed queries, so two runs of one seed can be compared.
func digest(p *phase) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range p.answers[:p.warm+p.pinned] {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.ans))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sameCounts compares the phases: the queries, over the prefix both
// answered, whose answers differ, and those, over the warm-up and pinned
// queries, whose probe, round-trip, wire-byte or audit-byte counts
// differ.
func sameCounts(a, b *phase) (answers, counts int) {
	for i := range min(len(a.answers), len(b.answers)) {
		if a.answers[i].ans != b.answers[i].ans {
			answers++
		}
	}
	for i := range min(len(a.counts), len(b.counts)) {
		x, y := a.counts[i], b.counts[i]
		if x.probes != y.probes || x.roundTrips != y.roundTrips || x.reqBytes+x.respBytes != y.reqBytes+y.respBytes ||
			x.auditBytes != y.auditBytes {
			counts++
		}
	}
	return answers, counts
}

// detail is the informational line printed before the result.
type detail struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	LCASeed   uint64             `json:"lca_seed"`
	Traced    bool               `json:"traced"`
	Env       map[string]any     `json:"env"`
	Samples   map[string]int     `json:"samples"`
	Digest    string             `json:"digest"`
	Counts    map[string]float64 `json:"pinned_counts_per_query"`
	Disturbed bool               `json:"disturbed"`
	TraceFile string             `json:"trace_file,omitempty"`
	// TracedAnswers and TracedCounts count the queries whose answers and
	// whose counts differ between the traced and the untraced phase.
	TracedAnswers int `json:"traced_answer_mismatches,omitempty"`
	TracedCounts  int `json:"traced_count_mismatches,omitempty"`
}

// run executes one benchmark run.
func run(w workload, seed uint64, d time.Duration, traced bool, dir string) (*detail, *report, error) {
	if w.oneProc {
		runtime.GOMAXPROCS(1)
	}
	b, generated, err := w.prepare(seed, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	defer b.close()
	var mem arena
	defer mem.free()
	list, err := alloc[query](&mem, len(generated))
	if err != nil {
		return nil, nil, err
	}
	copy(list, generated)
	a, err := newPhase(&mem, len(list), w.warm, w.pinned)
	if err != nil {
		return nil, nil, err
	}
	baseKiB, err := resetPeakRSS()
	if err != nil {
		return nil, nil, err
	}

	// Half the set-ups run before the timed phase and half after it, so
	// their median spans the run rather than its first seconds: a shared
	// virtual machine can drift in speed from one minute to the next.
	var st setupTimes
	before := (w.setupReps + 1) / 2
	sys, err := setUp(b, list, w.kinds, 0, before, &st)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	err = drive(a, sys, list, d, nil)
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	sys, err = setUp(b, list, w.kinds, before, w.setupReps, &st)
	if err == nil && sys != nil {
		err = sys.close()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	phases := []*phase{a}
	var rec *recorder
	if traced {
		rec = newRecorder()
		// The traced system answers first the queries the measured one did.
		last := (before - 1) * w.kinds
		tsys, _, err := b.setup(rec, list[last:last+w.kinds])
		if err != nil {
			return nil, nil, fmt.Errorf("traced set-up: %w", err)
		}
		tb, err := newPhase(&mem, len(list), w.warm, w.pinned)
		if err == nil {
			err = drive(tb, tsys, list, d, rec)
		}
		if cerr := tsys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, tb)
	}

	n := 0
	for _, p := range phases {
		n = max(n, len(p.answers))
	}
	ref, err := b.reference(list[:n])
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	rep := &report{}
	for _, p := range phases {
		rep.Attempted += len(p.answers)
		rep.Failed += check(p, ref)
	}
	c := pinnedSums(a)
	per := func(x uint64) float64 { return float64(x) / float64(a.pinned) }
	det := &detail{
		Workload: w.name, Seed: seed, LCASeed: lcaSeed, Traced: traced,
		Env: map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH},
		Samples: map[string]int{"timed_queries": a.timed(), "warm_queries": w.warm, "setup_reps": w.setupReps, "pinned_queries": a.pinned},
		Digest:  digest(a),
		Counts: map[string]float64{"probes": per(c.probes), "round_trips": per(c.roundTrips),
			"wire_bytes": per(c.reqBytes + c.respBytes), "audit_bytes": per(c.auditBytes), "proof_bytes": per(c.proofBytes)},
		Disturbed: c.failovers+c.hedges+c.attestFails > 0,
	}
	if !traced {
		lat := sortedCopy(a.lat)
		rep.Metrics = map[string]metric{
			"setup_s":          {median(st.total), "s"},
			"qps":              {float64(a.timed()) / a.elapsed.Seconds(), "1/s"},
			"p50_us":           {float64(quantile(lat, 0.50)) / 1e3, "us"},
			"p99_us":           {float64(quantile(lat, 0.99)) / 1e3, "us"},
			"probes_per_query": {per(c.probes), "probes"},
			"max_rss_mb":       {float64(a.peakKiB-baseKiB) / 1024, "MB"},
		}
	} else {
		tb := phases[1]
		det.TracedAnswers, det.TracedCounts = sameCounts(a, tb)
		rep.Failed += det.TracedAnswers + det.TracedCounts
		det.Samples["traced_queries"] = tb.timed()
		det.TraceFile = filepath.Join(dir, "spans-"+w.name+".jsonl") // the latest traced run of w
		if err := rec.writeJSONL(det.TraceFile); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.Metrics = layerMetrics(w, a, tb, rec.snapshot(), st.medians(), rep)
	}
	rep.Correct = rep.Failed == 0
	return det, rep, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
