package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the span that caused the
// call (0 for a root). Bytes carries the body bytes a span moved, where the
// boundary is an HTTP handler.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	// ambient is the span server middleware parents itself to when a
	// request arrives without a span header (the cluster router's own
	// outbound calls). An operation sets it while it runs; that is sound
	// because the benchmark has one client.
	ambient atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end closes and records it.
type active struct {
	t *tracer
	s span
}

// start opens a span named name under parent.
func (t *tracer) start(name string, parent int64) *active {
	if t == nil {
		return nil
	}
	return &active{t: t, s: span{ID: t.next.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}}
}

// id is the span's identifier, 0 for a nil span.
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int64, fn func()) {
	sp := t.start(name, parent)
	fn()
	sp.end()
}

// record adds a span of duration d that ends now, for a wait the
// benchmark learns about after the fact.
func (t *tracer) record(name string, parent int64, d time.Duration) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: t.next.Add(1), Parent: parent, Name: name, Start: end - int64(d), End: end})
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores the spans as JSON in path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// children indexes spans by parent ID. A span whose parent was never
// recorded is a root (listed under 0).
func children(spans []span) map[int64][]span {
	known := make(map[int64]bool, len(spans))
	for _, s := range spans {
		known[s.ID] = true
	}
	out := make(map[int64][]span)
	for _, s := range spans {
		p := s.Parent
		if !known[p] {
			p = 0
		}
		out[p] = append(out[p], s)
	}
	return out
}

// selfNS returns each span's self time: its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfNS(spans []span) map[int64]int64 {
	kids := children(spans)
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// byName collects span durations in milliseconds per span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.ms())
	}
	return out
}

// selfByName is the median self time in milliseconds per span name; nil
// without spans.
func selfByName(spans []span) map[string]float64 {
	if len(spans) == 0 {
		return nil
	}
	self := selfNS(spans)
	per := make(map[string][]float64)
	for _, s := range spans {
		per[s.Name] = append(per[s.Name], float64(self[s.ID])/1e6)
	}
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

// spanHeader carries the client's span ID to the server-side middleware.
const spanHeader = "X-Perfbench-Span"

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// middleware wraps a server's handler in a span named name. The parent is
// the span in the request header or, without one, the tracer's ambient
// span; requests with neither (untraced operations) record nothing. The
// span's Bytes are the request plus response body bytes.
func middleware(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			parent = t.ambient.Load()
		}
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.start(name, parent)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		sp.s.Bytes = max(r.ContentLength, 0) + cw.n
		sp.end()
	})
}
