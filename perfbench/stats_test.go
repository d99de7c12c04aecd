package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		q     float64
		want  float64
		valid bool
	}{
		{100, 0.9, 90, true}, // ranks 91..100 lie beyond
		{99, 0.9, 90, false}, // only 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.valid {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.valid)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestOKRatioCountsRefusedAndWrong(t *testing.T) {
	sts := []status{statusOK, statusOK, statusRefused, statusWrong, statusOK, statusFailed, statusOK, statusOK}
	if got, want := okRatio(sts), 5.0/8; got != want {
		t.Fatalf("okRatio = %v, want %v", got, want)
	}
	if got := okRatio(nil); got != 0 {
		t.Fatalf("okRatio(nil) = %v, want 0", got)
	}
}

func TestStatusOfHTTP(t *testing.T) {
	for code, want := range map[int]status{200: statusOK, 201: statusOK, 429: statusRefused, 503: statusRefused, 400: statusFailed, 500: statusFailed} {
		if got := statusOf(code); got != want {
			t.Errorf("statusOf(%d) = %d, want %d", code, got, want)
		}
	}
}

// A refused or wrong op must count against ok_ratio and as a miss of every
// latency limit, not be dropped from the samples.
func TestSummarizeChargesFailuresToLatency(t *testing.T) {
	outs := make([]outcome, 0, 100)
	for i := range 100 {
		o := outcome{kind: opPrimary, ms: 1, simMS: 2}
		if i >= 95 {
			o.st = statusRefused
		}
		if i == 94 {
			o.st = statusWrong
		}
		outs = append(outs, o)
	}
	s, err := summarize([]window{{outs: outs, wall: 2 * time.Second}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.correct || s.failed != 6 || math.Abs(s.okRatio-0.94) > 1e-12 {
		t.Fatalf("correct %v, failed %d, ok_ratio %v; want false, 6, 0.94", s.correct, s.failed, s.okRatio)
	}
	if p90, _ := percentile(s.primaryMS, 0.9); p90 != 1 {
		t.Fatalf("p90 = %v, want 1", p90)
	}
	if p99 := s.primaryMS[99]; p99 != 2000 {
		t.Fatalf("refused op latency = %v ms, want the 2000 ms window", p99)
	}
	if s.simMS != 2 {
		t.Fatalf("sim_ms_per_op = %v over verified ops, want 2", s.simMS)
	}
}

func TestSelfTimesSubtractRungBelow(t *testing.T) {
	got := selfTimes([]rung{{"http", 10}, {"service", 7}, {"core", 6.5}})
	want := []rung{{"http", 3}, {"service", 0.5}, {"core", 6.5}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	if got := selfTimes([]rung{{"a", 1}, {"b", 2}}); got[0].ms != -1 {
		t.Fatalf("a rung faster than the one below keeps its negative self time, got %v", got[0].ms)
	}
}

// A window in which the hypervisor took more than maxStealShare of the
// vCPU time keeps counting for correctness but not for timings.
func TestSummarizeSetsAsideStolenWindows(t *testing.T) {
	ops := func(ms float64, st status) []outcome {
		var outs []outcome
		for i := range 2 * minOps {
			k := opPrimary
			if i%2 == 1 {
				k = opWrite
			}
			outs = append(outs, outcome{kind: k, ms: ms, st: st})
		}
		return outs
	}
	limit := int64(maxStealShare * 2 * 100 * 2) // 2 s window, 2 vCPUs
	quiet := window{outs: ops(1, statusOK), wall: 2 * time.Second, after: procSnap{steal: limit}}
	stolen := window{outs: ops(9, statusWrong), wall: 2 * time.Second, before: procSnap{steal: limit}, after: procSnap{steal: 3 * limit}}
	s, err := summarize([]window{quiet, stolen}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.fallback || s.quiet != 1 || s.steal != 3*limit {
		t.Fatalf("fallback %v, quiet %d, steal %d; want false, 1, %d", s.fallback, s.quiet, s.steal, 3*limit)
	}
	if s.attempted != 4*minOps || s.failed != 2*minOps || s.correct {
		t.Fatalf("attempted %d, failed %d, correct %v: the stolen window's wrong answers must still count", s.attempted, s.failed, s.correct)
	}
	if p90, _ := percentile(s.primaryMS, 0.9); p90 != 1 || s.primary != minOps {
		t.Fatalf("p90 %v over %d primary ops; want 1 over %d, from the quiet window only", p90, s.primary, minOps)
	}

	// Too few quiet samples: the timings fall back to every window.
	s, err = summarize([]window{stolen, stolen}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !s.fallback || s.primary != 2*minOps {
		t.Fatalf("fallback %v over %d primary ops; want true over %d", s.fallback, s.primary, 2*minOps)
	}
}
