package main

import (
	"context"
	"fmt"
	"time"

	"apujoin"
	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// phjTuples sizes both relations of the phj workload: 2^19 tuples each is
// 8 MiB of relations plus hash tables, over the 4 MiB shared L2, and one
// join is short enough for a run to reach 100 of them.
const phjTuples = 1 << 19

// phjWrites is how many distinct write relations the phj loop cycles
// through; a write's cost does not depend on which one it is.
const phjWrites = 16

var phjOpt = core.Options{Algo: core.PHJ, Scheme: core.PL}

// phjFixture is the phj workload's inputs and oracle.
type phjFixture struct {
	r, s      rel.Relation
	writes    []rel.Relation
	want      int64   // oracle match count of r ⋈ s
	wantSimNS float64 // simulated total of the Workers=1 reference run
}

func newPHJFixture(seed int64) (*phjFixture, error) {
	r := rel.Gen{N: phjTuples, Seed: seed}.Build()
	s := rel.Gen{N: phjTuples, Seed: seed + 1}.Probe(r, 1)
	want := rel.NaiveJoinCount(r, s)
	opt := phjOpt
	opt.Workers = 1
	ref, err := core.Run(r, s, opt)
	if err != nil {
		return nil, fmt.Errorf("phj reference run: %w", err)
	}
	if ref.Matches != want {
		return nil, fmt.Errorf("phj reference run: %d matches, oracle %d", ref.Matches, want)
	}
	return &phjFixture{
		r: r, s: s, want: want, wantSimNS: ref.TotalNS,
		writes: writeRelations(r, seed, phjWrites, 1<<14),
	}, nil
}

// writeRelations generates n probe relations of r with distinct sizes
// starting at base, for the loops' write operations.
func writeRelations(r rel.Relation, seed int64, n, base int) []rel.Relation {
	out := make([]rel.Relation, n)
	for j := range out {
		out[j] = rel.Gen{N: base + j, Seed: seed + 1000 + int64(j)}.Probe(r, 1)
	}
	return out
}

func (fx *phjFixture) start(*tracer) (system, error) { return startPHJ(fx) }

func (fx *phjFixture) shape() shape {
	return shape{r: fx.r, s: fx.s, want: fx.want, opt: phjOpt, write: fx.writes[0],
		sources: []rel.Relation{fx.r, fx.s}, wantPipe: fx.want, reps: 5}
}

// phjSystem is an unsharded Engine on its resident pool with R and S
// bulk-loaded. Its cycle alternates a PHJ-PL join of the pair (primary)
// with a write: loading a fresh relation into the catalog and dropping it.
type phjSystem struct {
	fx  *phjFixture
	eng *apujoin.Engine
}

func startPHJ(fx *phjFixture) (system, error) {
	sys := &phjSystem{fx: fx, eng: apujoin.NewEngine()}
	if _, err := sys.eng.Load("r", fx.r); err != nil {
		sys.close()
		return nil, err
	}
	if _, err := sys.eng.Load("s", fx.s); err != nil {
		sys.close()
		return nil, err
	}
	// Warm-up: pool spin-up and first-touch of the loaded columns.
	for i := range 2 {
		if o := sys.op(opCtx{i: i}); o.st != statusOK {
			sys.close()
			return nil, fmt.Errorf("phj warm-up op %d failed", i)
		}
	}
	return sys, nil
}

func (p *phjSystem) close() { _ = p.eng.Close() } // Close only drains the pool

func (p *phjSystem) op(oc opCtx) outcome {
	if oc.i%2 == 1 {
		return p.write(oc)
	}
	o := outcome{kind: opPrimary}
	sp := oc.tr.start("apujoin.join", oc.parent)
	t0 := time.Now()
	res, err := p.eng.Join(context.Background(), apujoin.Ref("r"), apujoin.Ref("s"),
		apujoin.WithAlgo(phjOpt.Algo), apujoin.WithScheme(phjOpt.Scheme))
	o.sysMS = msSince(t0)
	sp.end()
	switch {
	case err != nil:
		o.st = statusFailed
	case res.Matches != p.fx.want || res.TotalNS != p.fx.wantSimNS:
		o.st = statusWrong
	default:
		o.simMS = res.TotalNS / 1e6
	}
	return o
}

func (p *phjSystem) write(oc opCtx) outcome {
	o := outcome{kind: opWrite}
	w := p.fx.writes[(oc.i/2)%len(p.fx.writes)]
	sp := oc.tr.start("apujoin.load", oc.parent)
	t0 := time.Now()
	info, err := p.eng.Load("w", w)
	if err == nil {
		err = p.eng.Drop("w")
	}
	o.sysMS = msSince(t0)
	sp.end()
	switch {
	case err != nil:
		o.st = statusFailed
	case info.Tuples != w.Len():
		o.st = statusWrong
	}
	return o
}
