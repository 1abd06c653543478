package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/setfunc"
)

// This file holds the best-pair openings of two algorithms. The Table 3
// greedy opens with the pair maximizing the potential ½f({x,y}) + λd(x,y).
// The Section 5 local search seeds with the independent pair maximizing
// the objective f({x,y}) + λd(x,y). Ties go to the lowest (x, y).
//
// Give each pair x < y the key (s, d): s = f({x}) + f_y({x}), rounded as
// the scores round it, and d = d(x, y). For every λ ≥ 0 both scores are
// non-decreasing in s and in d, since each floating-point step rounds
// monotonically, fused multiply-add or not. A pair that some earlier pair
// matches or beats in both s and d can therefore never open: the earlier
// pair scores at least as high under every λ and wins the tie. The pairs
// no earlier pair dominates form the pair frontier. It holds the opening
// of every λ and of both scores, and on real corpora it is small: 148–215
// of the 2 million pairs of 2000 cosine-distance items. Evaluating it at
// λ, ties to the lowest (x, y), returns exactly the pair a full scan
// returns. Under a matroid only independent pairs enter it.
//
// One pass over the C(n,2) pairs builds a frontier, sharded by pair count.
// Each shard streams its rows against the Pareto staircase of the pairs it
// has kept. A per-row threshold skips almost every pair with one compare:
// no pair of row x has s above s_max = f({x}) + max_{y>x} f_y({x}), so a
// pair whose d is at most the staircase's d at s_max is dominated. Shards
// merge in shard order, each filtered against the staircase of those
// before it.

// pairFrontierCap bounds the pairs a frontier keeps, per item: a pass
// whose frontier grows past pairFrontierCap·n pairs stops keeping it and
// finishes as a plain scan for the λ it was asked about. Cosine corpora
// stay below 0.11 pairs per item.
const pairFrontierCap = 4

// frontierInitCap is the frontier capacity a shard starts with, enough
// for the cosine corpora measured above without regrowing.
const frontierInitCap = 512

// pairQuery is one opening request: the objective score f({x,y}) + λd(x,y)
// when objective is set, else the potential ½f({x,y}) + λd(x,y).
type pairQuery struct {
	objective bool
	lambda    float64
}

// score scores a pair from f({x}), the marginal f_y({x}) and d(x, y).
func (q pairQuery) score(fx, fy, d float64) float64 {
	if q.objective {
		return pairObjScore(fx, fy, q.lambda, d)
	}
	return pairPotScore(fx, fy, q.lambda, d)
}

// frontierPair is one frontier entry: the pair and the three inputs of
// its scores.
type frontierPair struct {
	x, y      int
	fx, fy, d float64
}

// pairFrontier is a frontier in (x, y) order.
type pairFrontier []frontierPair

// best evaluates the frontier under q: the highest score, ties to the
// earliest pair (Index x, Aux y; Index −1 when the frontier is empty).
func (f pairFrontier) best(q pairQuery) engine.Best {
	b := engine.Best{Index: -1}
	for _, p := range f {
		if v := q.score(p.fx, p.fy, p.d); b.Index == -1 || v > b.Value {
			b = engine.Best{Index: p.x, Aux: p.y, Value: v}
		}
	}
	return b
}

// staircase is the Pareto staircase of the (s, d) keys kept so far: s
// strictly falling, d strictly rising, no step dominating another.
type staircase []stairStep

type stairStep struct{ s, d float64 }

// at returns the largest d among the steps with key s' ≥ s, or −∞ when
// there is none. A key (s, d') with d' ≤ at(s) is dominated.
func (st staircase) at(s float64) float64 {
	lo, hi := 0, len(st)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); st[mid].s >= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return math.Inf(-1)
	}
	return st[lo-1].d
}

// insert adds an undominated key and drops the steps it dominates.
func (st *staircase) insert(s, d float64) {
	steps := *st
	i := 0
	for i < len(steps) && steps[i].s > s {
		i++
	}
	j := i
	for j < len(steps) && steps[j].d <= d {
		j++
	}
	*st = slices.Replace(steps, i, j, stairStep{s, d})
}

// frontierBuild is the read-only state one frontier pass shares across
// its shards.
type frontierBuild struct {
	m     matroid.Matroid // nil: every pair qualifies
	q     pairQuery       // the opening the pass answers
	w     []float64       // modular weights; nil for other quality
	wMax  []float64       // wMax[i] = max(w[i:]), wMax[n] = −∞
	limit int             // pairs a shard keeps before scanning plainly
}

// frontierShard is one shard of a pass: its staircase, the frontier pairs
// of its rows, and its scratch.
type frontierShard struct {
	b     *frontierBuild
	rows  *rowReader
	ev    setfunc.Evaluator // non-modular quality only
	fy    []float64         // non-modular quality: f_y({x}) of the row
	probe [2]int            // independence probe {x, y}
	stair staircase
	pairs pairFrontier
	// over is set once the shard kept more than the limit: it drops its
	// frontier and scores every remaining pair under the pass's query.
	over bool
	// best is the highest score of the shard's rows so far (taken: any).
	taken bool
	best  float64
}

// buildPairFrontier streams every pair x < y, or every pair independent in
// m, through the frontier filter in one pass sharded by pair count. It
// returns q's opening (Index x, Aux y; Index −1 when no pair qualifies)
// and the frontier, with kept = false when the frontier passed the cap. A
// cancelled pass returns ctx's error and nothing else.
func buildPairFrontier(ctx context.Context, obj *Objective, m matroid.Matroid, pool *engine.Pool, q pairQuery) (best engine.Best, fr pairFrontier, kept bool, err error) {
	n := obj.N()
	b := &frontierBuild{m: m, q: q, limit: pairFrontierCap * n}
	if mod, ok := obj.f.(*setfunc.Modular); ok {
		b.w = mod.Weights()
		b.wMax = make([]float64, n+1)
		b.wMax[n] = math.Inf(-1)
		for i := n - 1; i >= 0; i-- {
			b.wMax[i] = max(b.w[i], b.wMax[i+1])
		}
	}
	var shards []*frontierShard
	best = pool.ArgMaxTriCtx(ctx, n, kernelMinShard, func(int) engine.PairScorer {
		sh := &frontierShard{
			b:     b,
			rows:  newRowReader(obj.d),
			stair: make(staircase, 0, 16),
			pairs: make(pairFrontier, 0, min(n, frontierInitCap)),
		}
		if b.w == nil {
			sh.ev, sh.fy = obj.f.NewEvaluator(), make([]float64, n)
		}
		shards = append(shards, sh) // the engine calls factories in shard order
		return sh.row
	})
	if err = ctxErr(ctx); err != nil {
		return engine.Best{Index: -1}, nil, false, err
	}
	total := 0
	for _, sh := range shards {
		if sh.over {
			return best, nil, false, nil
		}
		total += len(sh.pairs)
	}
	if len(shards) == 1 {
		fr = shards[0].pairs
	} else {
		fr = make(pairFrontier, 0, total)
		stair := make(staircase, 0, 16)
		for _, sh := range shards {
			for _, p := range sh.pairs {
				if s := p.fx + p.fy; p.d > stair.at(s) {
					stair.insert(s, p.d)
					fr = append(fr, p)
				}
			}
		}
	}
	if len(fr) > b.limit {
		return best, nil, false, nil
	}
	return best, fr, true, nil
}

// row streams row x: the pairs (x, y > x). It reports the row's best pair
// under the pass's query among those it kept, which includes the row's
// part of the opening whenever the opening lies in this row.
func (sh *frontierShard) row(x int) (float64, int, bool) {
	b := sh.b
	var fx, fyMax float64
	var fy []float64
	if b.w != nil {
		fx, fy, fyMax = b.w[x], b.w[x+1:], b.wMax[x+1]
	} else {
		sh.ev.Reset()
		sh.ev.Add(x)
		fx, fy, fyMax = sh.ev.Value(), sh.fy[x+1:], math.Inf(-1)
		for i := range fy {
			fy[i] = sh.ev.Marginal(x + 1 + i)
			fyMax = max(fyMax, fy[i])
		}
	}
	var by int
	var v float64
	if sh.rows.f32 != nil {
		by, v = frontierRow(sh, x, sh.rows.f32.Row(x)[x+1:], fx, fy, fyMax)
	} else {
		by, v = frontierRow(sh, x, sh.rows.row64(x), fx, fy, fyMax)
	}
	if len(sh.pairs) > b.limit {
		sh.over, sh.pairs, sh.stair = true, nil, nil
	}
	if by == -1 {
		return 0, 0, false
	}
	if !sh.taken || v > sh.best {
		sh.taken, sh.best = true, v
	}
	return v, x + 1 + by, true
}

// frontierRow is row's loop over the distances of row x to its partners
// x+1, x+2, …, returning the offset of the row's best kept pair and its
// score (offset −1: none). Past the shard's limit it is the plain scan: the
// independence oracle is asked only for pairs that beat both the row's
// incumbent and the shard's best earlier row.
func frontierRow[T float32 | float64](sh *frontierShard, x int, row []T, fx float64, fy []float64, fyMax float64) (int, float64) {
	q := sh.b.q
	fy = fy[:len(row)]
	by, rowBest := -1, 0.0
	if sh.over {
		for i, d := range row {
			v := q.score(fx, fy[i], float64(d))
			if (sh.taken && v <= sh.best) || (by != -1 && v <= rowBest) || !sh.independent(x, x+1+i) {
				continue
			}
			by, rowBest = i, v
		}
		return by, rowBest
	}
	sMax := fx + fyMax
	t := sh.stair.at(sMax)
	for i, dv := range row {
		d := float64(dv)
		if d <= t {
			continue // a kept pair has s' ≥ sMax ≥ s and d' ≥ d
		}
		s := fx + fy[i]
		if d <= sh.stair.at(s) || !sh.independent(x, x+1+i) {
			continue
		}
		sh.stair.insert(s, d)
		sh.pairs = append(sh.pairs, frontierPair{x, x + 1 + i, fx, fy[i], d})
		t = sh.stair.at(sMax)
		if v := q.score(fx, fy[i], d); by == -1 || v > rowBest {
			by, rowBest = i, v
		}
	}
	return by, rowBest
}

// independent reports whether {x, y} qualifies under the pass's matroid.
func (sh *frontierShard) independent(x, y int) bool {
	if sh.b.m == nil {
		return true
	}
	sh.probe = [2]int{x, y}
	return sh.b.m.Independent(sh.probe[:])
}

// PairCache holds one pair frontier across solves. The first solve that
// opens with a pair builds it, single-flight: concurrent solves wait for
// that build and then read it. Every later solve evaluates it in about a
// microsecond. A cancelled build leaves the cache empty for the next solve
// to fill. A frontier past the retention cap is not kept; every solve then
// runs its own pass at scan cost.
//
// A cache serves one ground set, quality function and metric. Handed to a
// solve through CachePairs it also serves one constraint. λ, the score and
// the pool may differ from solve to solve. The zero value is ready to use.
type PairCache struct {
	mu       sync.Mutex
	building chan struct{} // closed when the build in flight ends; nil when none runs
	frontier pairFrontier
	held     bool // frontier holds a complete build
	oversize bool // a complete build passed the cap
	builds   int
}

// Stats reports how many complete passes the cache ran and the size of the
// frontier it holds (−1 when it holds none).
func (pc *PairCache) Stats() (builds, pairs int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if !pc.held {
		return pc.builds, -1
	}
	return pc.builds, len(pc.frontier)
}

// opening answers q from the held frontier, building it first when it is
// missing. Solves that find a build in flight wait for it, or for their
// own ctx.
func (pc *PairCache) opening(ctx context.Context, q pairQuery, build func() (engine.Best, pairFrontier, bool, error)) (engine.Best, error) {
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	for {
		pc.mu.Lock()
		switch {
		case pc.held:
			fr := pc.frontier
			pc.mu.Unlock()
			return fr.best(q), nil
		case pc.oversize:
			pc.mu.Unlock()
			b, _, _, err := build()
			return b, err
		case pc.building != nil:
			wait := pc.building
			pc.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-cancelled:
				return engine.Best{Index: -1}, ctx.Err()
			}
		}
		done := make(chan struct{})
		pc.building = done
		pc.mu.Unlock()
		return pc.fill(done, build)
	}
}

// fill runs the build this solve took on and publishes its result, unless
// the build was cancelled or panicked, then wakes the waiting solves.
func (pc *PairCache) fill(done chan struct{}, build func() (engine.Best, pairFrontier, bool, error)) (engine.Best, error) {
	finished := false
	var fr pairFrontier
	var kept bool
	defer func() {
		pc.mu.Lock()
		if finished {
			pc.builds++
			pc.frontier, pc.held, pc.oversize = fr, kept, !kept
		}
		pc.building = nil
		pc.mu.Unlock()
		close(done)
	}()
	b, fr, kept, err := build()
	finished = err == nil
	return b, err
}

// pairCached is a matroid carrying the pair cache of its independent
// pairs (CachePairs).
type pairCached struct {
	matroid.Matroid
	pairs *PairCache
}

// CachePairs attaches pc to m: a local search or matroid greedy under the
// returned constraint reads and fills pc for its opening pair. pc must only
// ever serve m, over one ground set, quality function and metric.
func CachePairs(m matroid.Matroid, pc *PairCache) matroid.Matroid {
	return pairCached{Matroid: m, pairs: pc}
}

// uncached returns m without the cache CachePairs attached, and that cache.
func uncached(m matroid.Matroid) (matroid.Matroid, *PairCache) {
	if c, ok := m.(pairCached); ok {
		return c.Matroid, c.pairs
	}
	return m, nil
}

// WithPairCache returns a copy of o whose openings over all pairs read and
// fill pc: the Table 3 greedy, and the Section 5 seed under a cardinality
// constraint. pc must only ever serve objectives with o's quality function
// and metric; λ may differ.
func (o *Objective) WithPairCache(pc *PairCache) *Objective {
	cp := *o
	cp.pairs = pc
	return &cp
}

// openingPair returns the opening under the score objective selects, among
// the pairs independent in m (all pairs when m is nil), through the pair
// cache serving m when there is one.
func openingPair(ctx context.Context, obj *Objective, m matroid.Matroid, pool *engine.Pool, objective bool) (engine.Best, error) {
	m, pc := uncached(m)
	switch m.(type) {
	case matroid.Uniform, matroid.Free:
		if m.Rank() >= 2 {
			m = nil // every pair is independent
		}
	}
	if m == nil && pc == nil {
		pc = obj.pairs
	}
	q := pairQuery{objective: objective, lambda: obj.lambda}
	build := func() (engine.Best, pairFrontier, bool, error) {
		return buildPairFrontier(ctx, obj, m, pool, q)
	}
	if pc == nil {
		b, _, _, err := build()
		return b, err
	}
	return pc.opening(ctx, q, build)
}

// bestPotentialPair returns the Table 3 opening, the pair maximizing
// ½f({x,y}) + λd(x,y). On cancellation the returned pair is arbitrary; the
// caller checks ctx before using it.
func bestPotentialPair(ctx context.Context, obj *Objective, pool *engine.Pool) (int, int) {
	b, _ := openingPair(ctx, obj, nil, pool, false)
	if b.Index == -1 {
		return 0, 1 // n < 2 never reaches here (callers check p ≥ 2 ≤ n)
	}
	return b.Index, b.Aux
}

// bestIndependentPair returns the Section 5 seed, the independent pair
// maximizing f({x,y}) + λd(x,y).
func bestIndependentPair(ctx context.Context, obj *Objective, m matroid.Matroid, pool *engine.Pool) (int, int, error) {
	b, err := openingPair(ctx, obj, m, pool, true)
	if err != nil {
		return 0, 0, err
	}
	if b.Index == -1 {
		return 0, 0, fmt.Errorf("core: no independent pair exists (matroid rank < 2?)")
	}
	return b.Index, b.Aux, nil
}
