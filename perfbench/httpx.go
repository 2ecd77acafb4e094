package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// tripper is the client-side http.RoundTripper around every request the
// benchmark's clients send. It always counts round trips and wire bytes
// (request URI plus body out, response body in); with a recorder it also
// records one "rt" span per round trip under the query in flight and
// passes the span's ID to the server in spanHeader.
type tripper struct {
	base http.RoundTripper
	rec  *recorder // nil: count only

	trips, reqBytes, respBytes atomic.Uint64
}

// tripCounts is a snapshot of a tripper's counters.
type tripCounts struct{ trips, reqBytes, respBytes uint64 }

func (t *tripper) counts() tripCounts {
	return tripCounts{t.trips.Load(), t.reqBytes.Load(), t.respBytes.Load()}
}

func (c tripCounts) sub(o tripCounts) tripCounts {
	return tripCounts{c.trips - o.trips, c.reqBytes - o.reqBytes, c.respBytes - o.respBytes}
}

// RoundTrip implements http.RoundTripper.
func (t *tripper) RoundTrip(req *http.Request) (*http.Response, error) {
	out := uint64(len(req.URL.RequestURI()))
	if req.ContentLength > 0 {
		out += uint64(req.ContentLength)
	}
	t.trips.Add(1)
	t.reqBytes.Add(out)
	var id int32
	if t.rec != nil {
		q := t.rec.query.Load()
		id = t.rec.start("rt", q, t.rec.querySpan.Load())
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, formatSpanHeader(q, id))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		if t.rec != nil {
			t.rec.finish(id, int64(out))
		}
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, done: func(n int64) {
		t.respBytes.Add(uint64(n))
		if t.rec != nil {
			t.rec.finish(id, int64(out)+n)
		}
	}}
	return resp, nil
}

// countingBody counts a response body's bytes and reports them once, on
// Close.
type countingBody struct {
	rc   io.ReadCloser
	n    int64
	done func(n int64)
	once atomic.Bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	if b.once.CompareAndSwap(false, true) {
		b.done(b.n)
	}
	return err
}

// traceHandler is the server-side middleware: it records one "handler"
// span per request, parented to the client round trip named in
// spanHeader, holds it in slot while the handler runs, and counts the
// response bytes.
func traceHandler(next http.Handler, rec *recorder, slot *handlerSlot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			q, parent = -1, 0
		}
		id := rec.start("handler", q, parent)
		slot.set(q, id)
		cw := &countingResponseWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		slot.set(-1, 0)
		rec.finish(id, cw.n)
	})
}

type countingResponseWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// auditSink is the io.Writer behind the server's audit log: it counts the
// bytes and discards them, and with a recorder records one "audit" span
// per write under the handler span running it.
type auditSink struct {
	bytes atomic.Uint64
	rec   *recorder
	slot  *handlerSlot
}

func (a *auditSink) Write(p []byte) (int, error) {
	if a.rec != nil {
		q, parent := a.slot.get()
		id := a.rec.start("audit", q, parent)
		defer a.rec.finish(id, int64(len(p)))
	}
	a.bytes.Add(uint64(len(p)))
	return len(p), nil
}

// loopback is one HTTP server on a loopback port.
type loopback struct {
	srv  *http.Server
	done chan error
	url  string
}

// listen binds a loopback port and serves h on it until close.
func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its serving goroutine.
func (l *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns a client whose requests all pass through t, over a
// keep-alive transport holding at most maxConns connections per host
// (0: unlimited).
func newClient(t *tripper, maxConns int) (*http.Client, *http.Transport) {
	base := &http.Transport{MaxIdleConnsPerHost: 4, MaxConnsPerHost: maxConns, IdleConnTimeout: time.Minute}
	t.base = base
	return &http.Client{Transport: t}, base
}
