package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestTracedRoundTrip checks the span chain a traced request leaves:
// query -> rt (client RoundTripper) -> handler (server middleware) ->
// audit (writer called by the handler), with bytes counted on both ends.
func TestTracedRoundTrip(t *testing.T) {
	rec := newRecorder()
	slot := &handlerSlot{}
	sink := &auditSink{rec: rec, slot: slot}
	h := traceHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(sink, "audit line\n")
		io.WriteString(w, "hello")
	}), rec, slot)
	lb, err := listen(h)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	tr := &tripper{rec: rec}
	client, transport := newClient(tr, 1)
	defer transport.CloseIdleConnections()

	rec.beginQuery(5)
	resp, err := client.Post(lb.url+"/x?y=1", "text/plain", strings.NewReader("body"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.endQuery()
	if string(body) != "hello" {
		t.Fatalf("body %q", body)
	}

	byName := map[string]span{}
	for _, s := range rec.snapshot() {
		byName[s.Name] = s
		if s.Query != 5 || s.End < s.Start {
			t.Errorf("span %+v: want query 5 and an end after its start", s)
		}
	}
	q, rt, hd, au := byName["query"], byName["rt"], byName["handler"], byName["audit"]
	if rt.Parent != q.ID || hd.Parent != rt.ID || au.Parent != hd.ID {
		t.Fatalf("broken chain: query %+v rt %+v handler %+v audit %+v", q, rt, hd, au)
	}
	if hd.Bytes != 5 || au.Bytes != int64(len("audit line\n")) {
		t.Errorf("handler bytes %d, audit bytes %d", hd.Bytes, au.Bytes)
	}
	c := tr.counts()
	if c.trips != 1 || c.reqBytes != uint64(len("/x?y=1")+len("body")) || c.respBytes != 5 {
		t.Errorf("tripper counts %+v", c)
	}
	if sink.bytes.Load() != uint64(len("audit line\n")) {
		t.Errorf("audit sink counted %d bytes", sink.bytes.Load())
	}
}

// TestUntracedTripperCountsOnly checks that without a recorder the
// RoundTripper counts but adds no header.
func TestUntracedTripperCountsOnly(t *testing.T) {
	lb, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(spanHeader) != "" {
			t.Error("untraced request carried the span header")
		}
		io.WriteString(w, "ok")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	tr := &tripper{}
	client, transport := newClient(tr, 0)
	defer transport.CloseIdleConnections()
	resp, err := client.Get(lb.url + "/a")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if c := tr.counts(); c.trips != 1 || c.reqBytes != 2 || c.respBytes != 2 {
		t.Errorf("counts %+v", c)
	}
}
