package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "QUERY.SPAN" from the client RoundTripper to the
// server middleware, so a handler span can name the round trip that
// caused it. It is the benchmark's own header, not the program's
// X-LCA-Trace, so servers answer exactly as they do untraced.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval at a layer boundary. Spans of one query
// share its Query index; Parent is 0 for a query's root span.
type span struct {
	Name   string `json:"name"`
	Query  int32  `json:"query"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory for one traced phase. Span IDs are
// slice positions plus one. Safe for concurrent use: a sharded fan-out
// records round trips from several goroutines at once.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span

	// The query in flight and its root span. One query is in flight at a
	// time, so a single slot names the parent of every client-side span.
	query     atomic.Int32
	querySpan atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	r.query.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// start opens a span and returns its ID.
func (r *recorder) start(name string, query, parent int32) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Query: query, ID: int32(len(r.spans) + 1), Parent: parent, Start: t, End: -1})
	return int32(len(r.spans))
}

// finish closes span id, recording the bytes it moved (0 if none).
func (r *recorder) finish(id int32, bytes int64) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.Bytes = t, bytes
}

// beginQuery opens query i's root span and makes it the current parent.
func (r *recorder) beginQuery(i int) {
	id := r.start("query", int32(i), 0)
	r.query.Store(int32(i))
	r.querySpan.Store(id)
}

// endQuery closes the current query's root span.
func (r *recorder) endQuery() {
	r.finish(r.querySpan.Load(), 0)
	r.query.Store(-1)
	r.querySpan.Store(0)
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON line to path.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handlerSlot names the handler span a server is running, so layers below
// the handler that see no request (the audit writer, the attest shim)
// can parent their spans to it. A shard serves one request at a time
// with one query in flight.
type handlerSlot struct {
	query atomic.Int32
	span  atomic.Int32
}

func (h *handlerSlot) set(query, span int32) {
	h.query.Store(query)
	h.span.Store(span)
}

func (h *handlerSlot) get() (query, span int32) { return h.query.Load(), h.span.Load() }

func formatSpanHeader(query, span int32) string { return fmt.Sprintf("%d.%d", query, span) }

// parseSpanHeader reads a spanHeader value; ok is false when absent or
// malformed.
func parseSpanHeader(v string) (query, span int32, ok bool) {
	qs, ss, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	q, err1 := strconv.ParseInt(qs, 10, 32)
	s, err2 := strconv.ParseInt(ss, 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return int32(q), int32(s), true
}
