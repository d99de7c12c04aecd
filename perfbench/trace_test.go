package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

func TestSpanTreeParentLinks(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", 0)
	a := tr.start("a", root.id())
	a1 := tr.start("a1", a.id())
	a1.end()
	a.end()
	b := tr.start("b", root.id())
	b.end()
	root.end()
	orphan := tr.start("orphan", 9999) // parent never recorded
	orphan.end()

	kids := children(tr.snapshot())
	names := func(parent int64) map[string]bool {
		out := map[string]bool{}
		for _, s := range kids[parent] {
			out[s.Name] = true
		}
		return out
	}
	if got := names(0); len(got) != 2 || !got["op"] || !got["orphan"] {
		t.Fatalf("roots = %v, want op and orphan", got)
	}
	if got := names(root.id()); len(got) != 2 || !got["a"] || !got["b"] {
		t.Fatalf("children of op = %v, want a and b", got)
	}
	if got := names(a.id()); len(got) != 1 || !got["a1"] {
		t.Fatalf("children of a = %v, want a1", got)
	}
	var nilTracer *tracer
	if sp := nilTracer.start("x", 0); sp.id() != 0 {
		t.Fatal("a nil tracer must hand out span 0")
	}
}

func TestSelfNSSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfNS(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestMiddlewareLinksServerSpan(t *testing.T) {
	tr := newTracer()
	h := middleware(tr, "server", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("hello"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := tr.start("client", 0)
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(spanHeader, strconv.FormatInt(client.id(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	client.end()
	// Untraced request: no header, no ambient span, no record.
	if resp, err := http.Get(srv.URL); err == nil {
		resp.Body.Close()
	}

	kids := children(tr.snapshot())
	if got := kids[client.id()]; len(got) != 1 || got[0].Name != "server" || got[0].Bytes != 5 {
		t.Fatalf("server spans under client = %+v, want one 5-byte span", got)
	}
	if n := len(tr.snapshot()); n != 2 {
		t.Fatalf("%d spans recorded, want 2 (the untraced request records none)", n)
	}
}
