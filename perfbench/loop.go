package main

import "time"

// opKind separates a workload's primary operation from its write.
type opKind uint8

const (
	opPrimary opKind = iota
	opWrite
)

// outcome is one attempted operation.
type outcome struct {
	kind opKind
	st   status
	// ms is the host latency from the first byte sent to the verified
	// answer; sysMS the part of it spent inside calls into the system.
	ms, sysMS float64
	// simMS is the simulated APU time the system reported (primary ops).
	simMS float64
	// spillBytes and spilledParts are the spill counters a pipeline
	// response reported.
	spillBytes, spilledParts int64
	traced                   bool
}

// opCtx identifies one operation of the client's fixed cycle. tr is nil
// for untraced operations; parent is the operation's root span.
type opCtx struct {
	i      int
	tr     *tracer
	parent int64
}

// system is one running system under test.
type system interface {
	op(oc opCtx) outcome
	close()
}

// maxStretch bounds how far past its duration a loop may run to reach its
// minimum sample counts in quiet windows.
const maxStretch = 2

// minOps is the fewest primary and the fewest write operations a run
// needs: the p90 of each must have ten samples beyond it.
const minOps = 100

// windowDur is the stretch of loop time judged for CPU steal as a whole.
const windowDur = 2 * time.Second

// maxStealShare is the share of a window's vCPU time the hypervisor may
// give to other guests before the window's timings are set aside. In quiet
// periods a run loses under 2%; in noisy ones 4–25% of its vCPU time went
// to other guests and every latency stretched with it.
const maxStealShare = 0.05

// window is one stretch of the loop: its operations and the process's
// resource use at its ends.
type window struct {
	outs          []outcome
	before, after procSnap
	wall          time.Duration
}

func (w window) steal() int64 { return w.after.steal - w.before.steal }

// quiet reports whether the hypervisor took at most maxStealShare of the
// window's vCPU time (steal ticks are USER_HZ, 100 a second per vCPU).
func (w window) quiet(ncpu int) bool {
	return float64(w.steal()) <= maxStealShare*w.wall.Seconds()*100*float64(ncpu)
}

// closedLoop drives sys from one client, which sends its next operation
// only when the previous one has been answered, and cuts the loop into
// windows of windowDur. It runs until its quiet windows hold dur of time,
// minOps primary and minOps write operations, or until maxStretch·dur has
// passed. With tr set it traces every other pair of operations (pairs, so
// that a cycle of two alternates too); the untraced ones in between
// measure the tracing overhead.
func closedLoop(sys system, dur time.Duration, ncpu int, tr *tracer) []window {
	start := time.Now()
	var wins []window
	var quietDur time.Duration
	var primary, writes int
	cur := window{before: snapProc()}
	wStart := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(wStart); el >= windowDur {
			cur.after, cur.wall = snapProc(), el
			wins = append(wins, cur)
			if cur.quiet(ncpu) {
				quietDur += el
				for _, o := range cur.outs {
					if o.kind == opPrimary {
						primary++
					} else {
						writes++
					}
				}
			}
			if quietDur >= dur && primary >= minOps && writes >= minOps || time.Since(start) >= maxStretch*dur {
				return wins
			}
			cur, wStart = window{before: cur.after}, time.Now()
		}
		oc := opCtx{i: i}
		var root *active
		if tr != nil && (i/2)%2 == 0 {
			oc.tr = tr
			root = tr.start("bench.op", 0)
			oc.parent = root.id()
		}
		t0 := time.Now()
		o := sys.op(oc)
		o.ms = msSince(t0)
		root.end()
		o.traced = root != nil
		cur.outs = append(cur.outs, o)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
