package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"apujoin/internal/httpapi"
	"apujoin/internal/rel"
	"apujoin/internal/service"
)

const (
	// serveTuples sizes the registered read pair: small enough that the
	// per-request layers are a visible share of a ~4 ms read.
	serveTuples = 1 << 14
	// serveWriteTuples is the approximate size of a write's relation.
	serveWriteTuples = 1 << 14
	// serveWrites distinct write sizes, more than the 128-entry plan
	// cache holds, so every write plans cold.
	serveWrites = 256
	// serveCycle is the client's fixed cycle: serveCycle-1 reads, 1 write.
	serveCycle = 16
)

// serveFixture is the serve workload's inputs, pre-encoded requests and
// oracle.
type serveFixture struct {
	r, s       rel.Relation
	writes     []rel.Relation
	want       int64   // oracle matches of the read
	wantSimMS  float64 // read's simulated ms on an in-process service
	writeWant  []int64 // oracle matches of each write's join
	upR, upS   []byte
	readBody   []byte
	writeUp    [][]byte
	writeJoin  [][]byte
	writeNames []string
}

func newServeFixture(seed int64) (*serveFixture, error) {
	r := rel.Gen{N: serveTuples, Seed: seed}.Build()
	s := rel.Gen{N: serveTuples, Seed: seed + 1}.Probe(r, 1)
	fx := &serveFixture{
		r: r, s: s, want: rel.NaiveJoinCount(r, s),
		writes: writeRelations(r, seed, serveWrites, serveWriteTuples-serveWrites/2),
		upR:    uploadBody("r", r.Keys), upS: uploadBody("s", s.Keys),
		readBody: mustJSON(joinRequest("r", "s")),
	}
	for j, w := range fx.writes {
		name := fmt.Sprintf("w%d", j)
		fx.writeNames = append(fx.writeNames, name)
		fx.writeWant = append(fx.writeWant, rel.NaiveJoinCount(r, w))
		fx.writeUp = append(fx.writeUp, uploadBody(name, w.Keys))
		fx.writeJoin = append(fx.writeJoin, mustJSON(joinRequest("r", name)))
	}

	// Reference topology: the same named auto join on an in-process
	// service with one worker, no HTTP.
	ref := service.New(service.Config{Workers: 1})
	defer ref.Close()
	for name, rl := range map[string]rel.Relation{"r": r, "s": s} {
		if _, err := ref.LoadRelation(name, rl); err != nil {
			return nil, err
		}
	}
	res, err := ref.RunJoin(context.Background(), service.JoinSpec{RName: "r", SName: "s", Auto: true})
	if err != nil {
		return nil, fmt.Errorf("serve reference join: %w", err)
	}
	if res.Matches != fx.want {
		return nil, fmt.Errorf("serve reference join: %d matches, oracle %d", res.Matches, fx.want)
	}
	fx.wantSimMS = res.TotalNS / 1e6
	return fx, nil
}

type joinReq struct {
	Algo   string `json:"algo"`
	Scheme string `json:"scheme,omitempty"`
	RName  string `json:"r_name"`
	SName  string `json:"s_name"`
	Wait   bool   `json:"wait"`
}

func joinRequest(r, s string) joinReq { return joinReq{Algo: "auto", RName: r, SName: s, Wait: true} }

func (fx *serveFixture) start(tr *tracer) (system, error) { return startServe(fx, tr) }

func (fx *serveFixture) shape() shape {
	return shape{r: fx.r, s: fx.s, want: fx.want, auto: true, write: fx.writes[0],
		sources: []rel.Relation{fx.r, fx.s}, wantPipe: fx.want, reps: 30}
}

func (s *serveSystem) serviceStats() []service.Stats { return []service.Stats{s.svc.Stats()} }

// serveSystem is service.New + httpapi.New behind an in-process loopback
// server, admission bounded at 2 concurrent queries. One client drives it:
// with two, a read's latency depends on whether the other client is in a
// read or a 55 ms write at the time, and the share of reads that overlap a
// write wanders from run to run, moving the read p50 by up to 35%.
type serveSystem struct {
	fx  *serveFixture
	svc *service.Service
	srv *httptest.Server
	cl  *apiClient
}

func startServe(fx *serveFixture, tr *tracer) (system, error) {
	svc := service.New(service.Config{MaxConcurrent: 2})
	srv := newServer(tr, "httpapi.handler", httpapi.New(svc, httpapi.Config{}))
	sys := &serveSystem{fx: fx, svc: svc, srv: srv, cl: newAPIClient(srv)}
	if err := sys.cl.upload(fx.upR, fx.r.Len()); err != nil {
		sys.close()
		return nil, err
	}
	if err := sys.cl.upload(fx.upS, fx.s.Len()); err != nil {
		sys.close()
		return nil, err
	}
	// Warm-up: fill the read's plan-cache entry and run two writes on
	// the sizes the loop reaches last.
	warm := []outcome{sys.read(opCtx{}), sys.write(opCtx{}, serveWrites-2), sys.write(opCtx{}, serveWrites-1)}
	for i, o := range warm {
		if o.st != statusOK {
			sys.close()
			return nil, fmt.Errorf("serve warm-up op %d: status %d", i, o.st)
		}
	}
	return sys, nil
}

func (s *serveSystem) close() {
	s.cl.close()
	s.srv.Close()
	_ = s.svc.Close() // Close only drains running queries
}

func (s *serveSystem) op(oc opCtx) outcome {
	if oc.i%serveCycle == serveCycle-1 {
		// Sizes are visited in turn: 255 other sizes are planned before
		// one repeats, so its plan was evicted long before.
		return s.write(oc, (oc.i/serveCycle)%serveWrites)
	}
	return s.read(oc)
}

func (s *serveSystem) read(oc opCtx) outcome {
	o := outcome{kind: opPrimary}
	sp := oc.tr.start("bench.send", oc.parent)
	rp, err := s.cl.send(http.MethodPost, "/v1/join", s.fx.readBody, sp.id())
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
	if err := json.Unmarshal(rp.body, &jr); err != nil {
		o.st = statusFailed
		return o
	}
	if jr.Result.Matches != s.fx.want || jr.Result.TotalMS != s.fx.wantSimMS {
		o.st = statusWrong
		return o
	}
	o.simMS = jr.Result.TotalMS
	return o
}

// write uploads write relation j, joins it against the resident build
// side under a cold plan, and deletes it.
func (s *serveSystem) write(oc opCtx, j int) outcome {
	o := outcome{kind: opWrite}
	steps := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/relations", s.fx.writeUp[j]},
		{http.MethodPost, "/v1/join", s.fx.writeJoin[j]},
		{http.MethodDelete, "/v1/relations?name=" + s.fx.writeNames[j], nil},
	}
	for k, st := range steps {
		sp := oc.tr.start("bench.send", oc.parent)
		rp, err := s.cl.send(st.method, st.path, st.body, sp.id())
		sp.end()
		if err != nil {
			o.st = statusFailed
			return o
		}
		o.sysMS += rp.sysMS
		if o.st = statusOf(rp.code); o.st != statusOK {
			return o
		}
		if k != 1 {
			continue
		}
		var jr joinReply
		if err := json.Unmarshal(rp.body, &jr); err != nil {
			o.st = statusFailed
			return o
		}
		if jr.Result.Matches != s.fx.writeWant[j] {
			o.st = statusWrong
			return o
		}
	}
	return o
}
