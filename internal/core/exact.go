package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"maxsumdiv/internal/matroid"
)

// ExactOptions configures the exact solver.
type ExactOptions struct {
	// Parallel fans the search out over the first chosen element across
	// Workers goroutines.
	Parallel bool
	// Workers bounds the parallel fan-out (≤ 0 selects GOMAXPROCS).
	Workers int
	// NoPrune disables the branch-and-bound upper-bound cut (useful for
	// testing the bound itself).
	NoPrune bool
	// Ctx, when non-nil, cancels the enumeration: every searcher polls it
	// once per ctxCheckNodes tree nodes and Exact returns ctx.Err(). This
	// is the essential guard for an exponential solver behind a serving
	// deadline.
	Ctx context.Context
}

// ctxCheckNodes is how many search-tree nodes an exact searcher expands
// between context polls.
const ctxCheckNodes = 4096

// Exact computes an optimal size-p subset by exhaustive enumeration with
// branch-and-bound pruning, using the incremental State so that each tree
// edge costs O(n). This is how the paper obtains the OPT columns of Tables
// 1, 3, 4, 8 and the denominators of Figure 1 (N = 50, p ≤ 7 scale).
//
// The pruning bound is valid for any normalized monotone submodular f: with
// r slots left, the objective can rise by at most the sum of the r largest
// current marginals φ_u(S) plus λ·C(r,2)·max-distance (future pairwise
// distances among the r newcomers).
func Exact(obj *Objective, p int, opts *ExactOptions) (*Solution, error) {
	if err := checkP(obj, p); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &ExactOptions{}
	}
	n := obj.N()
	if p == 0 || n == 0 {
		st := obj.NewState()
		return solutionFromState(st, 0), nil
	}

	dmax := 0.0
	for i := 1; i < n; i++ {
		if ctxErr(opts.Ctx) != nil {
			return nil, opts.Ctx.Err()
		}
		for j := 0; j < i; j++ {
			if d := obj.d.Distance(i, j); d > dmax {
				dmax = d
			}
		}
	}

	if !opts.Parallel {
		e := newExactSearcher(obj, p, dmax, !opts.NoPrune)
		e.ctx = opts.Ctx
		e.search(0)
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		return e.best(), nil
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n-p+1 {
		workers = n - p + 1
	}
	if workers < 1 {
		workers = 1
	}
	firsts := make(chan int, n)
	for first := 0; first <= n-p; first++ {
		firsts <- first
	}
	close(firsts)

	var mu sync.Mutex
	var globalBest *Solution
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newExactSearcher(obj, p, dmax, !opts.NoPrune)
			e.ctx = opts.Ctx
			for first := range firsts {
				if e.stopped || ctxErr(opts.Ctx) != nil {
					e.stopped = true
					return
				}
				e.st.Reset()
				e.st.Add(first)
				e.searchFrom(first + 1)
				e.st.Remove(first)
			}
			sol := e.best()
			if sol == nil {
				return
			}
			mu.Lock()
			if globalBest == nil || sol.Value > globalBest.Value {
				globalBest = sol
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	if globalBest == nil {
		return nil, fmt.Errorf("core: exact search found no solution (internal error)")
	}
	return globalBest, nil
}

// exactSearcher carries the DFS state for one worker.
type exactSearcher struct {
	obj     *Objective
	p       int
	st      *State
	dmax    float64
	prune   bool
	bestVal float64
	bestSet []int
	hasBest bool
	topBuf  []float64 // scratch for the top-r marginal selection
	ctx     context.Context
	nodes   int  // expansions since the last context poll
	stopped bool // a context poll failed; unwind the DFS
}

func newExactSearcher(obj *Objective, p int, dmax float64, prune bool) *exactSearcher {
	return &exactSearcher{
		obj:    obj,
		p:      p,
		st:     obj.NewState(),
		dmax:   dmax,
		prune:  prune,
		topBuf: make([]float64, 0, p),
	}
}

// search explores completions of the current state choosing indices ≥ from.
func (e *exactSearcher) search(from int) { e.searchFrom(from) }

func (e *exactSearcher) searchFrom(from int) {
	if e.stopped {
		return
	}
	if e.ctx != nil {
		if e.nodes++; e.nodes >= ctxCheckNodes {
			e.nodes = 0
			if e.ctx.Err() != nil {
				e.stopped = true
				return
			}
		}
	}
	if e.st.Size() == e.p {
		v := e.st.Value()
		if !e.hasBest || v > e.bestVal {
			e.bestVal = v
			e.bestSet = e.st.Members()
			e.hasBest = true
		}
		return
	}
	r := e.p - e.st.Size()
	n := e.obj.N()
	if n-from < r {
		return // not enough elements left
	}
	if e.prune && e.hasBest {
		if e.upperBound(from, r) <= e.bestVal {
			return
		}
	}
	// Keep enough suffix for the remaining slots.
	for u := from; u <= n-r; u++ {
		e.st.Add(u)
		e.searchFrom(u + 1)
		e.st.Remove(u)
		if e.stopped {
			return
		}
	}
}

// upperBound bounds φ of any completion with r elements from [from, n):
// current φ(S) + sum of the r largest marginals φ_u(S) + λ·C(r,2)·dmax.
// Validity: monotone submodular f gives f(S∪D) − f(S) ≤ Σ_{u∈D} f_u(S), and
// each newcomer's distance to S is d_u(S) while distances among newcomers
// are ≤ dmax each.
func (e *exactSearcher) upperBound(from, r int) float64 {
	n := e.obj.N()
	e.topBuf = e.topBuf[:0]
	for u := from; u < n; u++ {
		m := e.st.MarginalObjective(u)
		insertTopR(&e.topBuf, m, r)
	}
	var sum float64
	for _, v := range e.topBuf {
		sum += v
	}
	pairs := float64(r*(r-1)) / 2
	return e.st.Value() + sum + e.obj.lambda*pairs*e.dmax
}

// insertTopR maintains buf as the (unsorted-but-min-tracked) top-r values.
func insertTopR(buf *[]float64, v float64, r int) {
	b := *buf
	if len(b) < r {
		*buf = append(b, v)
		return
	}
	// Replace the minimum if v beats it.
	minIdx := 0
	for i := 1; i < len(b); i++ {
		if b[i] < b[minIdx] {
			minIdx = i
		}
	}
	if v > b[minIdx] {
		b[minIdx] = v
	}
}

func (e *exactSearcher) best() *Solution {
	if !e.hasBest || e.bestSet == nil {
		return nil
	}
	e.st.SetTo(e.bestSet)
	return solutionFromState(e.st, 0)
}

// ExactMatroid computes an optimal basis of the matroid by depth-first
// enumeration of independent sets (prefix pruning is sound because every
// subset of an independent set is independent). Exponential in general; used
// as the ground truth for the matroid-constrained tests.
func ExactMatroid(obj *Objective, m matroid.Matroid) (*Solution, error) {
	return ExactMatroidCtx(nil, obj, m)
}

// ExactMatroidCtx is ExactMatroid honoring a cancellation context: the DFS
// polls ctx once per ctxCheckNodes expansions and returns ctx.Err() — the
// guard that lets a serving deadline stop a matroid-constrained
// enumeration. A nil ctx never cancels.
func ExactMatroidCtx(ctx context.Context, obj *Objective, m matroid.Matroid) (*Solution, error) {
	if m.GroundSize() != obj.N() {
		return nil, fmt.Errorf("core: matroid ground size %d, objective has %d", m.GroundSize(), obj.N())
	}
	rank := m.Rank()
	st := obj.NewState()
	var bestSet []int
	bestVal := 0.0
	hasBest := false
	var members []int
	nodes, stopped := 0, false
	var pr matroid.Prober
	var dfs func(from int)
	dfs = func(from int) {
		if stopped {
			return
		}
		if ctx != nil {
			if nodes++; nodes >= ctxCheckNodes {
				nodes = 0
				if ctx.Err() != nil {
					stopped = true
					return
				}
			}
		}
		if st.Size() == rank {
			if v := st.Value(); !hasBest || v > bestVal {
				bestVal = v
				bestSet = st.Members()
				hasBest = true
			}
			return
		}
		for u := from; u < obj.N(); u++ {
			if !pr.CanAdd(m, members, u) {
				continue
			}
			st.Add(u)
			members = append(members, u)
			dfs(u + 1)
			members = members[:len(members)-1]
			st.Remove(u)
			if stopped {
				return
			}
		}
	}
	dfs(0)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if !hasBest {
		// Rank 0: the empty set is the only basis.
		return solutionFromState(st, 0), nil
	}
	st.SetTo(bestSet)
	return solutionFromState(st, 0), nil
}
