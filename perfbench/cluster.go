package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"apujoin/internal/httpapi"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
	"apujoin/internal/service"
	"apujoin/internal/shard"
)

const (
	// clusterTuples sizes each of the four pipeline sources.
	clusterTuples = 1 << 15
	// clusterServers shard servers sit behind the router, one worker
	// each, so the cluster uses at most nproc workers.
	clusterServers = 2
	// clusterWrites distinct small relations the write op cycles through.
	clusterWrites      = 64
	clusterWriteTuples = 1 << 10
)

var clusterNames = []string{"a", "b", "c", "d"}

// clusterFixture is the cluster-spill workload's inputs, requests, budget
// and oracle.
type clusterFixture struct {
	sources []rel.Relation
	writes  []rel.Relation
	// budget is each shard server's catalog capacity, set so that every
	// op spills the hot partition and keeps the other seven resident.
	budget    int64
	want      int64   // oracle pipeline cardinality
	wantSimMS float64 // simulated ms of the in-process sharded reference
	ref       *service.PipelineResult

	uploads    [][]byte
	pipeBody   []byte
	writeUp    [][]byte
	writeNames []string
}

func newClusterFixture(seed int64) (*clusterFixture, error) {
	a := rel.Gen{N: clusterTuples, Seed: seed}.Build()
	fx := &clusterFixture{sources: []rel.Relation{a}}
	for k := range 3 {
		fx.sources = append(fx.sources, hotProbe(a, seed+1+int64(k)))
	}
	fx.want = oracle.PipelineCount(fx.sources)
	fx.writes = writeRelations(a, seed, clusterWrites, clusterWriteTuples)

	// A partition's spill threshold is budget/8 minus its registered
	// bytes. The budget leaves the hot partition 1.5·clusterTuples bytes of
	// room: its first intermediate (about 2.7·clusterTuples bytes) spills,
	// and first-fit keeps four of its eight first-level spill partitions
	// resident, a count that margin holds from seed to seed. The cold
	// partitions keep over 6·clusterTuples bytes of room for intermediates
	// under clusterTuples bytes, and never spill.
	var partBytes [shard.Partitions]int64
	for _, src := range fx.sources {
		for p, part := range shard.Split(src) {
			partBytes[p] += part.Bytes()
		}
	}
	fx.budget = shard.Partitions * (partBytes[hotPartition] + 3*clusterTuples/2)

	req := pipelineReq{Algo: "auto", Wait: true}
	for i, name := range clusterNames {
		fx.uploads = append(fx.uploads, uploadBody(name, fx.sources[i].Keys))
		req.Sources = append(req.Sources, pipeSource{Name: name})
	}
	fx.pipeBody = mustJSON(req)
	for j, w := range fx.writes {
		name := fmt.Sprintf("w%d", j)
		fx.writeNames = append(fx.writeNames, name)
		fx.writeUp = append(fx.writeUp, uploadBody(name, w.Keys))
	}

	// Reference topology: one in-process sharded service with the same
	// per-partition budgets and one worker, no HTTP.
	ref, err := runShardedPipeline(fx.sources, fx.budget)
	if err != nil {
		return nil, fmt.Errorf("cluster-spill reference: %w", err)
	}
	if ref.Final.Matches != fx.want {
		return nil, fmt.Errorf("cluster-spill reference: %d matches, oracle %d", ref.Final.Matches, fx.want)
	}
	if ref.SpillBytes == 0 || ref.SpilledPartitions == 0 {
		return nil, fmt.Errorf("cluster-spill reference did not spill (budget %d bytes per server)", fx.budget)
	}
	fx.ref, fx.wantSimMS = ref, ref.TotalNS/1e6
	return fx, nil
}

// runShardedPipeline runs the auto pipeline over sources on a fresh
// in-process sharded service with one shard, one worker and the same
// per-partition thresholds as a shard server of the given budget.
func runShardedPipeline(sources []rel.Relation, budget int64) (*service.PipelineResult, error) {
	svc := service.New(service.Config{Workers: 1, Shards: 1, ShardBudget: budget})
	defer svc.Close()
	spec := service.PipelineSpec{Auto: true}
	for i, src := range sources {
		if _, err := svc.LoadRelation(clusterNames[i], src); err != nil {
			return nil, err
		}
		spec.Sources = append(spec.Sources, service.PipelineSource{Name: clusterNames[i]})
	}
	return svc.RunPipeline(context.Background(), spec)
}

// hotPartition is the grid partition the probes favour; hotShare of
// each probe's tuples draw their key from the build keys in it.
const (
	hotPartition = 0
	hotShare     = 0.25
)

// hotProbe generates a selectivity-1 probe of build whose keys favour
// hotPartition: about a third of its tuples land there, against an
// eighth under uniform keys. Every step's intermediate is then several
// times larger in the hot partition than in the others, by a margin that
// thousands of keys keep steady from seed to seed.
func hotProbe(build rel.Relation, seed int64) rel.Relation {
	var hot []int32
	for _, k := range build.Keys {
		if shard.PartitionOf(k) == hotPartition {
			hot = append(hot, k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := rel.Relation{Keys: make([]int32, clusterTuples), RIDs: make([]int32, clusterTuples)}
	for i := range out.Keys {
		out.RIDs[i] = int32(i)
		if rng.Float64() < hotShare {
			out.Keys[i] = hot[rng.Intn(len(hot))]
		} else {
			out.Keys[i] = build.Keys[rng.Intn(build.Len())]
		}
	}
	return out
}

type pipeSource struct {
	Name string `json:"name"`
}

type pipelineReq struct {
	Sources []pipeSource `json:"sources"`
	Algo    string       `json:"algo"`
	Wait    bool         `json:"wait"`
}

func (fx *clusterFixture) start(tr *tracer) (system, error) { return startCluster(fx, tr) }

// shape's join pair is the pipeline's first step as the planner ordered it.
func (fx *clusterFixture) shape() shape {
	r, s := fx.sources[fx.ref.Order[0]], fx.sources[fx.ref.Order[1]]
	return shape{r: r, s: s, want: rel.NaiveJoinCount(r, s), auto: true, write: fx.writes[0],
		sources: fx.sources, wantPipe: fx.want, budget: fx.budget, reps: 10}
}

func (c *clusterSystem) serviceStats() []service.Stats {
	out := []service.Stats{c.router.Stats()}
	for _, svc := range c.shards {
		out = append(out, svc.Stats())
	}
	return out
}

// clusterSystem is a router service (Config.Cluster) served by httpapi
// over clusterServers shard servers, all in-process over loopback.
type clusterSystem struct {
	fx     *clusterFixture
	shards []*service.Service
	srvs   []*httptest.Server // shard servers, then the router
	router *service.Service
	cl     *apiClient
}

func startCluster(fx *clusterFixture, tr *tracer) (system, error) {
	sys := &clusterSystem{fx: fx}
	var urls []string
	for i := range clusterServers {
		svc := service.New(service.Config{Workers: 1, Shards: 1, CatalogBytes: fx.budget})
		srv := newServer(tr, fmt.Sprintf("cluster.shard%d", i), httpapi.New(svc, httpapi.Config{}))
		sys.shards = append(sys.shards, svc)
		sys.srvs = append(sys.srvs, srv)
		urls = append(urls, srv.URL)
	}
	sys.router = service.New(service.Config{Workers: 1, Cluster: urls, HealthInterval: time.Minute})
	srv := newServer(nil, "", httpapi.New(sys.router, httpapi.Config{}))
	sys.srvs = append(sys.srvs, srv)
	sys.cl = newAPIClient(srv)
	for i, body := range fx.uploads {
		if err := sys.cl.upload(body, fx.sources[i].Len()); err != nil {
			sys.close()
			return nil, err
		}
	}
	for i := range 2 {
		if o := sys.op(opCtx{i: i}); o.st != statusOK {
			sys.close()
			return nil, fmt.Errorf("cluster-spill warm-up op %d: status %d", i, o.st)
		}
	}
	return sys, nil
}

func (c *clusterSystem) close() {
	c.cl.close()
	_ = c.router.Close() // stops the health checker; nothing to report
	for _, srv := range c.srvs {
		srv.Close()
	}
	for _, svc := range c.shards {
		_ = svc.Close()
	}
}

func (c *clusterSystem) op(oc opCtx) outcome {
	if oc.tr != nil {
		// Shard-server spans have no header from the router; they parent
		// to this operation (the loop has one client).
		oc.tr.ambient.Store(oc.parent)
		defer oc.tr.ambient.Store(0)
	}
	if oc.i%2 == 1 {
		return c.write(oc, (oc.i/2)%clusterWrites)
	}
	o := outcome{kind: opPrimary}
	sp := oc.tr.start("bench.send", oc.parent)
	rp, err := c.cl.send(http.MethodPost, "/v1/pipeline", c.fx.pipeBody, sp.id())
	sp.end()
	if err != nil {
		o.st = statusFailed
		return o
	}
	o.sysMS = rp.sysMS
	if o.st = statusOf(rp.code); o.st != statusOK {
		return o
	}
	var jr joinReply
	if err := json.Unmarshal(rp.body, &jr); err != nil || jr.Result.Pipeline == nil {
		o.st = statusFailed
		return o
	}
	pr := jr.Result.Pipeline
	// A run in which an op did not spill does not measure the spill path:
	// the op counts as wrong.
	if jr.Result.Matches != c.fx.want || jr.Result.TotalMS != c.fx.wantSimMS ||
		pr.SpillBytes != c.fx.ref.SpillBytes || pr.SpilledPartitions != c.fx.ref.SpilledPartitions || pr.SpillBytes == 0 {
		o.st = statusWrong
		return o
	}
	o.simMS, o.spillBytes, o.spilledParts = jr.Result.TotalMS, pr.SpillBytes, pr.SpilledPartitions
	return o
}

// write uploads a small fresh relation through the router (split and
// fanned out to the shard servers) and deletes it.
func (c *clusterSystem) write(oc opCtx, j int) outcome {
	o := outcome{kind: opWrite}
	sp := oc.tr.start("bench.send", oc.parent)
	t0 := time.Now()
	err := c.cl.upload(c.fx.writeUp[j], c.fx.writes[j].Len())
	var rp reply
	if err == nil {
		rp, err = c.cl.send(http.MethodDelete, "/v1/relations?name="+c.fx.writeNames[j], nil, sp.id())
	}
	o.sysMS = msSince(t0)
	sp.end()
	switch {
	case err != nil:
		o.st = statusFailed
	default:
		o.st = statusOf(rp.code)
	}
	return o
}
