package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"apujoin/internal/alloc"
	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/device"
	"apujoin/internal/htab"
	"apujoin/internal/httpapi"
	"apujoin/internal/mem"
	"apujoin/internal/plan"
	"apujoin/internal/radix"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
	"apujoin/internal/service"
	"apujoin/internal/shard"
)

// shape is what the traced run's ladder replays: a workload's join pair,
// its write relation and its pipeline sources, entered at each public
// entry point below the one the loop used.
type shape struct {
	r, s rel.Relation // the primary join pair (build, probe)
	want int64        // oracle matches of r ⋈ s
	// opt is the primary join's configuration for the core rungs; a zero
	// Algo/Scheme pair with auto set means the planner decides.
	opt  core.Options
	auto bool
	// write is one relation a write op registers.
	write rel.Relation
	// sources and wantPipe are the pipeline rungs' inputs and oracle.
	sources  []rel.Relation
	wantPipe int64
	// budget is the per-server catalog capacity of the pipeline rungs'
	// cluster; 0 selects the default.
	budget int64
	// reps is how many times each rung runs; metrics are medians.
	reps int
}

// statser is a system whose services report /v1/stats counters.
type statser interface {
	serviceStats() []service.Stats
}

// ladder runs every rung of sh, recording one span per call into a layer.
// It returns the non-span metrics it measured along the way.
type ladder struct {
	sh   shape
	tr   *tracer
	root int64
	pool *sched.Pool
	ctx  context.Context
	// extra holds per-layer values that are not span durations.
	extra map[string]float64
}

func (l *ladder) fail(format string, args ...any) error {
	return fmt.Errorf("ladder: "+format, args...)
}

// perLayer runs the ladder after the traced loop and reduces the spans to
// the per-layer metrics.
func perLayer(fx fixture, sys system, tr *tracer, sum summary) (map[string]metric, error) {
	sh := fx.shape()
	pool := sched.NewPool(0)
	defer pool.Close()
	root := tr.start("bench.ladder", 0)
	l := &ladder{sh: sh, tr: tr, root: root.id(), pool: pool, ctx: context.Background(), extra: map[string]float64{}}
	svcStats, err := l.run(sys)
	root.end()
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	med := map[string]float64{}
	for name, xs := range byName(spans) {
		med[name] = median(xs)
	}
	m := map[string]metric{}
	ms := func(name, span string) { m[name] = metric{med[span], "ms"} }
	us := func(name, span string) { m[name] = metric{med[span] * 1e3, "us"} }
	for _, k := range []string{"n1", "n2", "n3", "n3shard"} {
		ms("radix."+k+"_ms", "radix."+k)
	}
	for _, k := range []string{"b1", "b2", "b3", "b4", "p1", "p2", "p3", "p4", "b3shard", "b4shard"} {
		ms("htab."+k+"_ms", "htab."+k)
	}
	us("sched.maprange_us", "sched.maprange")
	m["sched.speedup"] = metric{med["core.run_w1"] / med["core.run"], "x"}
	ms("core.run_ms", "core.run")
	m["core.pilot_ms"] = metric{med["core.run_noplan"] - med["core.run"], "ms"}
	m["core.alloc_mb"] = metric{l.extra["core.alloc_mb"], "MB"}
	ms("core.read_run_ms", "core.read_run")
	ms("httpapi.read_rtt_ms", "httpapi.read_rtt")
	ms("httpapi.read_handler_ms", "httpapi.read_handler")
	ms("service.read_ms", "service.read")
	ms("service.admission_wait_ms", "service.admission_wait")
	us("plan.hit_us", "plan.hit")
	ms("plan.cold_ms", "plan.cold")
	us("catalog.acquire_us", "catalog.acquire")
	ms("catalog.load_ms", "catalog.load")
	ms("httpapi.upload_rtt_ms", "httpapi.upload_rtt")
	m["httpapi.upload_req_kb"] = metric{l.extra["httpapi.upload_req_kb"], "KB"}
	ms("cluster.pipeline_rtt_ms", "cluster.pipeline_rtt")
	for _, k := range []string{"cluster.shard_ms_max", "cluster.shard_ms_min"} {
		m[k] = metric{l.extra[k], "ms"}
	}
	m["cluster.calls_per_op"] = metric{l.extra["cluster.calls_per_op"], "count"}
	m["cluster.wire_kb_per_op"] = metric{l.extra["cluster.wire_kb_per_op"], "KB"}
	ms("shard.pipeline_ms", "shard.pipeline")
	ms("shard.split_ms", "shard.split")
	us("shard.merge_us", "shard.merge")
	ms("service.pipeline_ms", "service.pipeline")
	m["service.spill_ms"] = metric{med["service.pipeline_tight"] - med["service.pipeline"], "ms"}
	m["service.spill_bytes_per_op"] = metric{sum.spillBytes, "B"}
	m["service.spilled_partitions_per_op"] = metric{sum.spilledParts, "count"}
	m["service.spill_depth"] = metric{l.extra["service.spill_depth"], "count"}
	us("plan.order_us", "plan.order")

	// Counters of the loop's own services where the workload has them,
	// else of the ladder's.
	var hits, misses, rejected, retries, failures float64
	for _, st := range svcStats {
		hits += float64(st.PlanHits)
		misses += float64(st.PlanMisses)
		rejected += float64(st.Rejected)
		if st.Cluster != nil {
			for _, sh := range st.Cluster.Shards {
				retries += float64(sh.Retries)
				failures += float64(sh.Failures)
			}
		}
	}
	m["plan.hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}
	m["service.rejected"] = metric{rejected, "count"}
	m["cluster.retries"] = metric{retries, "count"}
	m["cluster.failures"] = metric{failures, "count"}

	m["go.gc_cycles_per_op"] = metric{sum.gcPerOp, "count"}
	m["go.gc_pause_ms_per_op"] = metric{sum.gcPauseMSPerOp, "ms"}
	m["bench.client_ms"] = metric{median(sum.clientMS), "ms"}
	if len(sum.tracedMS) == 0 || len(sum.untracedMS) == 0 {
		return nil, fmt.Errorf("trace overhead: %d traced and %d untraced primary ops", len(sum.tracedMS), len(sum.untracedMS))
	}
	m["bench.trace_overhead_pct"] = metric{(median(sum.tracedMS)/median(sum.untracedMS) - 1) * 100, "%"}

	reportShares(m, sum, sh)
	return m, nil
}

// reportShares prints where a primary op's time goes, layer by layer, as
// self times down the ladder of the op's entry points.
func reportShares(m map[string]metric, sum summary, sh shape) {
	// The op partitions both sides; the radix rungs time R alone.
	radixR := m["radix.n1_ms"].Value + m["radix.n2_ms"].Value + m["radix.n3shard_ms"].Value
	kernels := radixR * float64(sh.r.Len()+sh.s.Len()) / float64(max(sh.r.Len(), 1))
	for _, k := range []string{"b1", "b2", "b3shard", "b4shard", "p1", "p2", "p3", "p4"} {
		kernels += m["htab."+k+"_ms"].Value
	}
	op := median(sum.untracedMS)
	fmt.Fprintf(os.Stderr, "perfbench: primary op p50 %.3f ms; core.run %.3f ms = kernels %.3f ms + core self %.3f ms; pilot %.3f ms\n",
		op, m["core.run_ms"].Value, kernels, m["core.run_ms"].Value-kernels, m["core.pilot_ms"].Value)
	for _, r := range selfTimes([]rung{
		{"httpapi.read_rtt", m["httpapi.read_rtt_ms"].Value},
		{"service.read", m["service.read_ms"].Value},
		{"core.read_run", m["core.read_run_ms"].Value},
	}) {
		fmt.Fprintf(os.Stderr, "perfbench:   self %-18s %9.3f ms\n", r.name, r.ms)
	}
}

// run executes every rung and returns the stats of the services whose
// counters the per-layer metrics report.
func (l *ladder) run(sys system) ([]service.Stats, error) {
	steps := []func() error{l.kernels, l.coreAndPlan, l.pipelines}
	for _, st := range steps {
		if err := st(); err != nil {
			return nil, err
		}
	}
	svcStats, err := l.serviceRungs()
	if err != nil {
		return nil, err
	}
	if ss, ok := sys.(statser); ok {
		svcStats = ss.serviceStats()
	}
	return svcStats, nil
}

var kernelAlloc = alloc.Config{BlockBytes: alloc.DefaultBlockBytes}

// kernels times the radix and hash-table steps of a PHJ over the pair, as
// core's parallel runtime calls them, plus the single-stream n3/b3/b4 the
// ownership-sharded variants replace.
func (l *ladder) kernels() error {
	r, s := l.sh.r, l.sh.s
	n := r.Len()
	cpu := device.New(device.APUCPU())
	rp := radix.PlanFor(n, mem.DefaultL2Bytes/8)
	bits := rp.BitsPerPass[0]
	passWords := alloc.ParallelCapWords(kernelAlloc, (n/radix.ChunkTuples+(1<<bits)+1)*(1+2*radix.ChunkTuples),
		1+2*radix.ChunkTuples, 2*sched.DefaultShards)

	pr, ps := radix.PartitionHost(r, rp), radix.PartitionHost(s, rp)
	idxR, idxS := make([]int32, n), make([]int32, s.Len())
	pr.PartIdx(idxR)
	ps.PartIdx(idxS)
	parts := rp.Partitions()
	bpp := 1
	for bpp < max(n/parts, 1) {
		bpp *= 2
	}
	tableWords := alloc.ParallelCapWords(kernelAlloc, n*5+64, 3, 4*sched.DefaultShards)
	rk, rr := pr.Rel.Keys, pr.Rel.RIDs
	sk, sr := ps.Rel.Keys, ps.Rel.RIDs
	ns := s.Len()

	for range l.sh.reps {
		arena := alloc.New(kernelAlloc, passWords)
		pass := radix.NewPass(r, arena, 0, bits)
		l.mapRange("radix.n1", n, func(lo, hi int) device.Acct { return pass.N1(cpu, lo, hi) })
		l.mapRange("radix.n2", n, func(lo, hi int) device.Acct { return pass.N2Atomic(cpu, lo, hi) })
		l.tr.timed("radix.n3shard", l.root, func() {
			shards := pass.Shards(sched.DefaultShards)
			sh := pass.ShardShift(shards)
			l.pool.MapShards(shards, func(shard int) device.Acct {
				la := arena.NewLocal()
				defer la.Close()
				return pass.N3Shard(cpu, 0, n, int32(shard), sh, la)
			})
		})
		serial := radix.NewPass(r, alloc.New(kernelAlloc, passWords), 0, bits)
		serial.N1(cpu, 0, n)
		serial.N2(cpu, 0, n)
		l.tr.timed("radix.n3", l.root, func() { serial.N3(cpu, 0, n) })

		l.tr.timed("sched.maprange", l.root, func() {
			l.pool.MapRange(0, n, func(int, int) device.Acct { return device.Acct{} })
		})

		// Parallel build and probe, as core runs them.
		t := htab.NewSeg(parts, bpp, 0, rp.TotalBits(), alloc.New(kernelAlloc, tableWords))
		bucketR, headR, nodeR, workR := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
		l.mapRange("htab.b1", n, func(lo, hi int) device.Acct { return t.B1Seg(cpu, rk, idxR, bucketR, lo, hi) })
		l.mapRange("htab.b2", n, func(lo, hi int) device.Acct { return t.B2Atomic(cpu, bucketR, headR, workR, lo, hi) })
		l.owned("htab.b3shard", t, func(shard int32, shift uint, la *alloc.Local) device.Acct {
			return t.B3Shard(cpu, rk, bucketR, nodeR, 0, n, shard, shift, la)
		})
		l.owned("htab.b4shard", t, func(shard int32, shift uint, la *alloc.Local) device.Acct {
			return t.B4Shard(cpu, rr, bucketR, nodeR, 0, n, shard, shift, la)
		})
		bucketS, headS, nodeS, workS := make([]int32, ns), make([]int32, ns), make([]int32, ns), make([]int32, ns)
		l.mapRange("htab.p1", ns, func(lo, hi int) device.Acct { return t.P1Seg(cpu, sk, idxS, bucketS, lo, hi) })
		l.mapRange("htab.p2", ns, func(lo, hi int) device.Acct { return t.P2(cpu, bucketS, headS, workS, lo, hi) })
		l.mapRange("htab.p3", ns, func(lo, hi int) device.Acct { return t.P3(cpu, sk, headS, nodeS, lo, hi, nil) })
		var mu sync.Mutex
		var pairs int64
		l.mapRange("htab.p4", ns, func(lo, hi int) device.Acct {
			out := htab.Out{Materialize: true, Arena: alloc.New(kernelAlloc, 4*(hi-lo)+64)}
			a := t.P4(cpu, sr, nodeS, &out, lo, hi, nil)
			mu.Lock()
			pairs += out.Pairs
			mu.Unlock()
			return a
		})
		if pairs != l.sh.want {
			return l.fail("kernel probe found %d matches, oracle %d", pairs, l.sh.want)
		}

		// Single-stream b3/b4 on a fresh table.
		st := htab.NewSeg(parts, bpp, 0, rp.TotalBits(), alloc.New(kernelAlloc, tableWords))
		st.B1Seg(cpu, rk, idxR, bucketR, 0, n)
		st.B2(cpu, bucketR, headR, workR, 0, n)
		l.tr.timed("htab.b3", l.root, func() { st.B3(cpu, rk, bucketR, nodeR, 0, n, nil) })
		l.tr.timed("htab.b4", l.root, func() { st.B4(cpu, rr, nodeR, 0, n) })
	}
	return nil
}

func (l *ladder) mapRange(name string, n int, fn func(lo, hi int) device.Acct) {
	l.tr.timed(name, l.root, func() { l.pool.MapRange(0, n, fn) })
}

func (l *ladder) owned(name string, t *htab.Table, fn func(shard int32, shift uint, la *alloc.Local) device.Acct) {
	l.tr.timed(name, l.root, func() {
		shards := t.Shards(sched.DefaultShards)
		shift := t.ShardShift(shards)
		l.pool.MapShards(shards, func(shard int) device.Acct {
			la := t.Arena().NewLocal()
			defer la.Close()
			return fn(int32(shard), shift, la)
		})
	})
}

// coreAndPlan times core.RunCtx with and without an injected plan, at one
// worker and on the pool, plus the planner, catalog and cold planning.
func (l *ladder) coreAndPlan() error {
	r, s := l.sh.r, l.sh.s
	cat := catalog.New(0)
	if _, err := cat.Load("r", r); err != nil {
		return err
	}
	if _, err := cat.Load("s", s); err != nil {
		return err
	}
	planner := plan.New(0)
	re, err := cat.Acquire("r")
	if err != nil {
		return err
	}
	se, err := cat.Acquire("s")
	if err != nil {
		return err
	}
	w := cat.Workload(re, se)
	re.Release()
	se.Release()
	cached, _, _, err := planner.PlanWorkload(l.ctx, r, s, core.Options{}, w)
	if err != nil {
		return err
	}

	// The op's own plan: the planner's for auto workloads; for a fixed
	// algorithm and scheme, the profiles and ratios of an unplanned run.
	opPlan := cached
	if !l.sh.auto {
		opt := l.sh.opt
		opt.Pool = l.pool
		res, err := core.RunCtx(l.ctx, r, s, opt)
		if err != nil {
			return err
		}
		opPlan = planOf(res)
	}
	check := func(what string, res *core.Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if res.Matches != l.sh.want {
			return l.fail("%s: %d matches, oracle %d", what, res.Matches, l.sh.want)
		}
		return nil
	}
	var allocs []float64
	for range l.sh.reps {
		var res *core.Result
		var err error
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		l.tr.timed("core.run", l.root, func() {
			res, err = core.RunCtx(l.ctx, r, s, core.Options{Plan: opPlan, Pool: l.pool})
		})
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.TotalAlloc-a0)/1e6)
		if err := check("core.run", res, err); err != nil {
			return err
		}
		l.tr.timed("core.run_noplan", l.root, func() {
			res, err = core.RunCtx(l.ctx, r, s, core.Options{Algo: opPlan.Algo, Scheme: opPlan.Scheme, Pool: l.pool})
		})
		if err := check("core.run without plan", res, err); err != nil {
			return err
		}
		l.tr.timed("core.run_w1", l.root, func() {
			res, err = core.RunCtx(l.ctx, r, s, core.Options{Plan: opPlan, Workers: 1})
		})
		if err := check("core.run at one worker", res, err); err != nil {
			return err
		}
		// The read as the op runs it: under the cached plan when the
		// planner decides, else unplanned, pilot included.
		readOpt := core.Options{Plan: cached, Pool: l.pool}
		if !l.sh.auto {
			readOpt = l.sh.opt
			readOpt.Pool = l.pool
		}
		l.tr.timed("core.read_run", l.root, func() { res, err = core.RunCtx(l.ctx, r, s, readOpt) })
		if err := check("core.read_run", res, err); err != nil {
			return err
		}

		var hit bool
		l.tr.timed("plan.hit", l.root, func() {
			_, _, hit, err = planner.PlanWorkload(l.ctx, r, s, core.Options{}, w)
		})
		if err != nil || !hit {
			return l.fail("warm plan lookup: hit %v, err %v", hit, err)
		}
		l.tr.timed("plan.cold", l.root, func() { _, err = core.BuildPlan(r, l.sh.write, core.Options{}) })
		if err != nil {
			return err
		}
		l.tr.timed("catalog.acquire", l.root, func() {
			a, errA := cat.Acquire("r")
			b, errB := cat.Acquire("s")
			if errA == nil {
				a.Release()
			}
			if errB == nil {
				b.Release()
			}
			err = errors.Join(errA, errB)
		})
		if err != nil {
			return err
		}
		l.tr.timed("catalog.load", l.root, func() { _, err = cat.Load("w", l.sh.write) })
		if err != nil {
			return err
		}
		if _, err := cat.Drop("w"); err != nil {
			return err
		}
	}
	l.extra["core.alloc_mb"] = median(allocs)
	return nil
}

// planOf rebuilds the plan a finished run followed, so injecting it
// replays that run without its pilot or ratio searches.
func planOf(res *core.Result) *core.Plan {
	pl := &core.Plan{
		Algo: res.Algo, Scheme: res.Scheme, Arch: res.Arch,
		Partition: res.PartitionProfile, Build: res.BuildProfile, Probe: res.ProbeProfile,
		BuildRatios: res.Ratios.Build, ProbeRatios: res.Ratios.Probe,
	}
	if len(res.Ratios.Partition) > 0 {
		pl.PartitionRatios = res.Ratios.Partition[0]
	}
	return pl
}

// serviceRungs replays the read and the upload through an unsharded
// service: in-process, then over HTTP.
func (l *ladder) serviceRungs() ([]service.Stats, error) {
	svc := service.New(service.Config{MaxConcurrent: 2})
	defer svc.Close()
	if _, err := svc.LoadRelation("r", l.sh.r); err != nil {
		return nil, err
	}
	if _, err := svc.LoadRelation("s", l.sh.s); err != nil {
		return nil, err
	}
	queue := service.New(service.Config{MaxConcurrent: 1})
	defer queue.Close()
	if _, err := queue.LoadRelation("r", l.sh.r); err != nil {
		return nil, err
	}
	if _, err := queue.LoadRelation("s", l.sh.s); err != nil {
		return nil, err
	}
	srv := newServer(l.tr, "httpapi.read_handler", httpapi.New(svc, httpapi.Config{}))
	defer srv.Close()
	cl := newAPIClient(srv)
	defer cl.close()
	spec := service.JoinSpec{RName: "r", SName: "s", Auto: l.sh.auto, Opt: l.sh.opt}
	req := joinRequest("r", "s")
	if !l.sh.auto {
		req.Algo, req.Scheme = "phj", "pl" // the only fixed configuration a shape uses
	}
	readBody := mustJSON(req)
	up := uploadBody("w", l.sh.write.Keys)
	l.extra["httpapi.upload_req_kb"] = float64(len(up)) / 1024

	for range l.sh.reps {
		var res *core.Result
		var err error
		l.tr.timed("service.read", l.root, func() { res, err = svc.RunJoin(l.ctx, spec) })
		if err != nil {
			return nil, err
		}
		if res.Matches != l.sh.want {
			return nil, l.fail("service.read: %d matches, oracle %d", res.Matches, l.sh.want)
		}
		// Admission hand-off: with one slot, a second query queues behind
		// the first; its wait after that slot frees is the admission
		// layer's own latency.
		var qs [2]*service.Query
		for i := range qs {
			if qs[i], err = queue.SubmitSpec(l.ctx, spec); err != nil {
				return nil, err
			}
		}
		for _, q := range qs {
			if _, err := q.Wait(l.ctx); err != nil {
				return nil, err
			}
		}
		ahead, queued := qs[0].Snapshot(), qs[1].Snapshot()
		if ahead.Finished == nil || queued.Started == nil {
			return nil, l.fail("admission: query without start or finish time")
		}
		l.tr.record("service.admission_wait", l.root, queued.Started.Sub(*ahead.Finished))

		sp := l.tr.start("httpapi.read_rtt", l.root)
		rp, err := cl.send(http.MethodPost, "/v1/join", readBody, sp.id())
		sp.end()
		if err != nil {
			return nil, err
		}
		var jr joinReply
		if rp.code != http.StatusOK || json.Unmarshal(rp.body, &jr) != nil || jr.Result.Matches != l.sh.want {
			return nil, l.fail("HTTP read: HTTP %d, %d matches, oracle %d", rp.code, jr.Result.Matches, l.sh.want)
		}

		l.tr.timed("httpapi.upload_rtt", l.root, func() { err = cl.upload(up, l.sh.write.Len()) })
		if err != nil {
			return nil, err
		}
		if rp, err := cl.send(http.MethodDelete, "/v1/relations?name=w", nil, 0); err != nil || rp.code != http.StatusOK {
			return nil, l.fail("delete upload: HTTP %d, %v", rp.code, err)
		}
	}
	return []service.Stats{svc.Stats()}, nil
}

// pipelines replays the pipeline over the sources: through a router over
// two shard servers, on an in-process sharded service with the same
// per-partition budgets, and on an unsharded service with an ample and a
// tight budget; plus the orderer, the split and the merge on their own.
func (l *ladder) pipelines() error {
	srcs := l.sh.sources
	names := make([]string, len(srcs))
	for i := range srcs {
		names[i] = fmt.Sprintf("src%d", i)
	}
	check := func(what string, res *service.PipelineResult, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if res.Final.Matches != l.sh.wantPipe {
			return l.fail("%s: %d matches, oracle %d", what, res.Final.Matches, l.sh.wantPipe)
		}
		return nil
	}
	spec := service.PipelineSpec{Auto: true}
	for _, n := range names {
		spec.Sources = append(spec.Sources, service.PipelineSource{Name: n})
	}
	load := func(svc *service.Service) error {
		for i, src := range srcs {
			if _, err := svc.LoadRelation(names[i], src); err != nil {
				return err
			}
		}
		return nil
	}

	// Cluster: a router over two shard servers.
	if err := l.clusterRungs(names); err != nil {
		return err
	}

	// In-process sharded, same per-partition budgets as the cluster.
	shardBudget := int64(0)
	if l.sh.budget > 0 {
		shardBudget = l.sh.budget / clusterServers
	}
	sharded := service.New(service.Config{Shards: clusterServers, ShardBudget: shardBudget})
	defer sharded.Close()
	if err := load(sharded); err != nil {
		return err
	}
	keep := spec
	keep.KeepPartitions = true
	kres, err := sharded.RunPipeline(l.ctx, keep)
	if err := check("sharded pipeline", kres, err); err != nil {
		return err
	}
	l.extra["service.spill_depth"] = float64(kres.SpillDepth)
	largest := srcs[0]
	for _, src := range srcs {
		if src.Len() > largest.Len() {
			largest = src
		}
	}

	// Unsharded: ample budget, then a budget just over the registered
	// data, so the streamed intermediates spill.
	ample := service.New(service.Config{})
	defer ample.Close()
	if err := load(ample); err != nil {
		return err
	}
	used := ample.Stats().Catalog.Bytes
	tight := service.New(service.Config{CatalogBytes: used + int64(largest.Len())*4})
	defer tight.Close()
	if err := load(tight); err != nil {
		return err
	}
	cat := ample.Catalog()
	entries := make([]*catalog.Entry, len(names))
	for i, n := range names {
		e, err := cat.Acquire(n)
		if err != nil {
			return err
		}
		defer e.Release()
		entries[i] = e
	}
	rels := make([]plan.PipeRel, len(srcs))
	for i, src := range srcs {
		rels[i] = plan.PipeRel{Tuples: src.Len(), HeavyShare: entries[i].HeavyShare()}
	}
	pairStats := func(i, j int) (plan.Workload, bool) { return cat.Workload(entries[i], entries[j]), true }

	for range l.sh.reps {
		var res *service.PipelineResult
		l.tr.timed("shard.pipeline", l.root, func() { res, err = sharded.RunPipeline(l.ctx, spec) })
		if err := check("shard.pipeline", res, err); err != nil {
			return err
		}
		l.tr.timed("shard.split", l.root, func() { shard.Split(largest) })
		l.tr.timed("shard.merge", l.root, func() { shard.MergeResults(kres.Partitions.Steps[0]) })
		l.tr.timed("service.pipeline", l.root, func() { res, err = ample.RunPipeline(l.ctx, spec) })
		if err := check("service.pipeline", res, err); err != nil {
			return err
		}
		l.tr.timed("service.pipeline_tight", l.root, func() { res, err = tight.RunPipeline(l.ctx, spec) })
		if err := check("tight-budget pipeline", res, err); err != nil {
			return err
		}
		l.tr.timed("plan.order", l.root, func() { plan.OrderPipelineEst(rels, pairStats) })
	}
	return nil
}

// clusterRungs runs the pipeline through a router over two shard servers
// whose middleware attributes every shard call to the pipeline's span.
func (l *ladder) clusterRungs(names []string) error {
	var urls []string
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	for i := range clusterServers {
		svc := service.New(service.Config{Workers: 1, Shards: 1, CatalogBytes: l.sh.budget})
		srv := newServer(l.tr, fmt.Sprintf("cluster.shard%d", i), httpapi.New(svc, httpapi.Config{}))
		stops = append(stops, func() { _ = svc.Close() }, srv.Close)
		urls = append(urls, srv.URL)
	}
	router := service.New(service.Config{Workers: 1, Cluster: urls, HealthInterval: time.Minute})
	rsrv := newServer(nil, "", httpapi.New(router, httpapi.Config{}))
	cl := newAPIClient(rsrv)
	stops = append(stops, rsrv.Close, func() { _ = router.Close() }, cl.close)
	req := pipelineReq{Algo: "auto", Wait: true}
	for i, n := range names {
		if err := cl.upload(uploadBody(n, l.sh.sources[i].Keys), l.sh.sources[i].Len()); err != nil {
			return err
		}
		req.Sources = append(req.Sources, pipeSource{Name: n})
	}
	body := mustJSON(req)
	var rtts []int64
	for range l.sh.reps {
		sp := l.tr.start("cluster.pipeline_rtt", l.root)
		l.tr.ambient.Store(sp.id())
		rp, err := cl.send(http.MethodPost, "/v1/pipeline", body, 0)
		l.tr.ambient.Store(0)
		sp.end()
		if err != nil {
			return err
		}
		var jr joinReply
		if rp.code != http.StatusOK || json.Unmarshal(rp.body, &jr) != nil || jr.Result.Matches != l.sh.wantPipe {
			return l.fail("cluster pipeline: HTTP %d, %d matches, oracle %d", rp.code, jr.Result.Matches, l.sh.wantPipe)
		}
		rtts = append(rtts, sp.id())
	}

	// Per pipeline: shard calls, per-server busy time, wire bytes.
	kids := children(l.tr.snapshot())
	var calls, wire, maxMS, minMS []float64
	for _, id := range rtts {
		perServer := make([]float64, clusterServers)
		var n, bytes float64
		for _, c := range kids[id] {
			var idx int
			if _, err := fmt.Sscanf(c.Name, "cluster.shard%d", &idx); err != nil || idx >= clusterServers {
				continue
			}
			perServer[idx] += c.ms()
			n++
			bytes += float64(c.Bytes)
		}
		sort.Float64s(perServer)
		calls = append(calls, n)
		wire = append(wire, bytes/1024)
		minMS = append(minMS, perServer[0])
		maxMS = append(maxMS, perServer[len(perServer)-1])
	}
	l.extra["cluster.calls_per_op"] = median(calls)
	l.extra["cluster.wire_kb_per_op"] = median(wire)
	l.extra["cluster.shard_ms_max"] = median(maxMS)
	l.extra["cluster.shard_ms_min"] = median(minMS)
	return nil
}
