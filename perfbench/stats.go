package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the value is one or two outliers, not a rank.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minBeyond samples lie strictly beyond its rank. A p90
// therefore needs at least 100 samples and a p50 at least 20.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], n-1-idx >= minBeyond
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// status is how one attempted operation ended.
type status uint8

const (
	// statusOK: the system answered and the answer verified.
	statusOK status = iota
	// statusFailed: an error or an unexpected HTTP status.
	statusFailed
	// statusRefused: admission turned the request away (429/503).
	statusRefused
	// statusWrong: the system answered, but the answer did not verify.
	statusWrong
)

// okRatio is the share of attempted operations that verified. Failed,
// refused and wrong-result operations all count against it.
func okRatio(sts []status) float64 {
	if len(sts) == 0 {
		return 0
	}
	ok := 0
	for _, s := range sts {
		if s == statusOK {
			ok++
		}
	}
	return float64(ok) / float64(len(sts))
}

// rung is one step of a layer ladder: the same operation entered at one
// public entry point, with its measured time.
type rung struct {
	name string
	ms   float64
}

// selfTimes turns a ladder ordered from the outermost entry point down into
// each layer's self time: a rung's time minus the rung directly below it.
// The lowest rung's self time is its own time. A negative difference means
// the layers are within noise of each other and is kept as measured.
func selfTimes(ladder []rung) []rung {
	out := make([]rung, len(ladder))
	for i, r := range ladder {
		out[i] = rung{name: r.name, ms: r.ms}
		if i+1 < len(ladder) {
			out[i].ms -= ladder[i+1].ms
		}
	}
	return out
}
