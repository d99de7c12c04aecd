package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"
)

// apiClient talks to one in-process /v1 server over loopback.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(srv *httptest.Server) *apiClient {
	return &apiClient{base: srv.URL, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// reply is one answered request: the HTTP status, the raw body, and the
// time spent from sending the request to reading the last body byte.
type reply struct {
	code  int
	body  []byte
	sysMS float64
}

// send issues one request with a pre-encoded body. parent, when non-zero,
// travels in the span header so the server middleware links its span.
func (c *apiClient) send(method, path string, body []byte, parent int64) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{code: resp.StatusCode, body: b, sysMS: msSince(t0)}, nil
}

// statusOf classifies an HTTP status: admission refusals (429/503) apart
// from other failures.
func statusOf(code int) status {
	switch {
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return statusRefused
	case code >= 200 && code < 300:
		return statusOK
	default:
		return statusFailed
	}
}

// joinReply is the subset of a join or pipeline response the benchmark
// verifies.
type joinReply struct {
	Result struct {
		Matches  int64   `json:"matches"`
		TotalMS  float64 `json:"total_ms"`
		Pipeline *struct {
			SpilledPartitions int64 `json:"spilled_partitions"`
			SpillBytes        int64 `json:"spill_bytes"`
		} `json:"pipeline"`
	} `json:"result"`
}

// relationReply is the subset of a relation registration response the
// benchmark verifies.
type relationReply struct {
	Result struct {
		Name   string `json:"name"`
		Tuples int    `json:"tuples"`
	} `json:"result"`
}

// mustJSON encodes a request body at set-up time.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode request: %v", err))
	}
	return b
}

// upload registers a relation by bulk upload and checks the reply.
func (c *apiClient) upload(body []byte, tuples int) error {
	rp, err := c.send(http.MethodPost, "/v1/relations", body, 0)
	if err != nil {
		return err
	}
	if rp.code != http.StatusCreated {
		return fmt.Errorf("upload: HTTP %d: %s", rp.code, rp.body)
	}
	var rr relationReply
	if err := json.Unmarshal(rp.body, &rr); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if rr.Result.Tuples != tuples {
		return fmt.Errorf("upload %s: %d tuples registered, want %d", rr.Result.Name, rr.Result.Tuples, tuples)
	}
	return nil
}

// uploadBody is the bulk-upload request for a relation whose RIDs are
// 0..n-1 (the server fills them in).
func uploadBody(name string, keys []int32) []byte {
	return mustJSON(struct {
		Name string  `json:"name"`
		Keys []int32 `json:"keys"`
	}{name, keys})
}

// newServer serves h over loopback, wrapped in the tracing middleware.
func newServer(tr *tracer, spanName string, h http.Handler) *httptest.Server {
	return httptest.NewServer(middleware(tr, spanName, h))
}
