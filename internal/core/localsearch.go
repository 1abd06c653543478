package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/matroid"
)

// LSOptions configures LocalSearch. The zero value reproduces the paper's
// Section 5 algorithm exactly: start from a basis containing the best
// independent pair and swap while any strict improvement exists.
type LSOptions struct {
	// Init seeds the search with an independent set (extended to a basis).
	// When nil, the search starts from a basis containing the pair {x,y}
	// maximizing f({x,y}) + λd(x,y) over independent pairs, as in Section 5.
	// The paper's experiments instead initialize from Greedy B; pass that
	// solution's members here to reproduce them.
	Init []int
	// MinGain is the absolute improvement a swap must exceed to be applied.
	// Zero accepts any strictly positive gain (with a 1e-12 guard against
	// floating-point churn).
	MinGain float64
	// RelEps, when positive, additionally requires a swap to improve φ(S) by
	// more than RelEps·φ(S) — the ε-improvement rule the paper invokes to
	// bound the iteration count polynomially (at a (1+ε) factor loss).
	RelEps float64
	// MaxSwaps caps the number of applied swaps (0 = unlimited).
	MaxSwaps int
	// TimeBudget stops the search after the given wall-clock duration
	// (0 = unlimited). The paper's "LS" runs Greedy B, then local search for
	// at most 10× the greedy's runtime.
	TimeBudget time.Duration
	// Pool shards the O(n·p) swap-neighborhood scan of each pass across its
	// workers. Selection is a total order (best gain, ties to the lowest
	// incoming index then earliest member), so any pool — including nil,
	// the serial default — yields the identical swap sequence.
	Pool *engine.Pool
	// Ctx, when non-nil, cancels the search: the engine polls it mid-scan
	// and LocalSearch returns ctx.Err() instead of a solution.
	Ctx context.Context
}

// LocalSearch runs the paper's oblivious single-swap local search
// (Section 5): while some u ∉ S, v ∈ S with S − v + u independent improves
// the objective, apply the best such swap. For normalized monotone submodular
// f, metric d, and any matroid constraint, the local optimum is a
// 2-approximation (Theorem 2).
//
// The search maintains S as a basis throughout (φ is monotone, so optima are
// bases; single swaps preserve basis-hood).
func LocalSearch(obj *Objective, m matroid.Matroid, opts *LSOptions) (*Solution, error) {
	if opts == nil {
		opts = &LSOptions{}
	}
	if m == nil {
		return nil, fmt.Errorf("core: nil matroid")
	}
	if m.GroundSize() != obj.N() {
		return nil, fmt.Errorf("core: matroid ground size %d, objective has %d", m.GroundSize(), obj.N())
	}
	if opts.MinGain < 0 || opts.RelEps < 0 {
		return nil, fmt.Errorf("core: negative improvement thresholds")
	}

	start, err := initialBasis(opts.Ctx, obj, m, opts.Init, opts.Pool)
	if err != nil {
		return nil, err
	}
	m, _ = uncached(m) // the pair cache served the opening; swaps probe m itself
	st := obj.AcquireState()
	defer obj.ReleaseState(st)
	for _, u := range start {
		st.Add(u)
	}

	deadline := time.Time{}
	if opts.TimeBudget > 0 {
		deadline = time.Now().Add(opts.TimeBudget)
	}
	swaps := 0
	sc := newScannerCtx(opts.Ctx, st, opts.Pool)
	// members is refreshed in place after each swap: the append reuses one
	// backing array, so the per-swap snapshot costs no allocation.
	members := append([]int(nil), st.members...)
	// canSwap reads the members variable, not a per-round copy, so one
	// filter serves every pass of the search. A uniform matroid accepts
	// every swap (|S − out + in| = |S|), so it needs no filter — and no
	// per-probe independence calls — at all. Other matroids probe through
	// per-worker Probers, whose scratch buffers amortize across the whole
	// search.
	var canSwap func(worker, out, in int) bool
	if _, uniform := m.(matroid.Uniform); !uniform {
		probers := make([]matroid.Prober, opts.Pool.Workers())
		canSwap = func(worker, out, in int) bool {
			return probers[worker].CanSwap(m, members, out, in)
		}
	}
	for {
		if opts.MaxSwaps > 0 && swaps >= opts.MaxSwaps {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		threshold := opts.MinGain
		if threshold <= 0 {
			threshold = 1e-12
		}
		if opts.RelEps > 0 {
			if rel := opts.RelEps * st.Value(); rel > threshold {
				threshold = rel
			}
		}
		b := sc.bestSwap(members, threshold, canSwap)
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, err
		}
		if b.Index == -1 {
			break // local optimum
		}
		st.Swap(b.Aux, b.Index)
		sc.swapped(b.Aux, b.Index)
		members = append(members[:0], st.members...)
		swaps++
	}
	// Canonicalize the evaluator state before reporting: swap-gain probes
	// leave float residue in incremental quality evaluators proportional to
	// how many probes ran on them, which differs between serial and sharded
	// scans — even on zero-swap runs, where the scan still probed every
	// pair. Rebuilding from the sorted member set makes the reported values
	// a function of the solution alone, so parallel and serial runs return
	// byte-identical solutions. Modular quality never routes probes through
	// the evaluator, so it carries no residue to clear.
	if st.modular == nil {
		canon := st.Members()
		sort.Ints(canon)
		st.SetTo(canon)
	}
	return solutionFromState(st, swaps), nil
}

// initialBasis produces the starting basis: the caller's seed extended to a
// basis, or the Section 5 best-pair basis.
func initialBasis(ctx context.Context, obj *Objective, m matroid.Matroid, seed []int, pool *engine.Pool) ([]int, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if seed != nil {
		basis, err := matroid.ExtendToBasis(m, seed)
		if err != nil {
			return nil, fmt.Errorf("core: LocalSearch init: %w", err)
		}
		return basis, nil
	}
	rank := m.Rank()
	switch {
	case rank == 0:
		return nil, nil
	case rank == 1:
		// Rank-1 matroid: the best independent singleton is optimal.
		best, bestVal := -1, 0.0
		ev := obj.f.NewEvaluator()
		for u := 0; u < obj.N(); u++ {
			if !m.Independent([]int{u}) {
				continue
			}
			v := ev.Marginal(u)
			if best == -1 || v > bestVal {
				best, bestVal = u, v
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("core: matroid of rank 1 with no independent singleton")
		}
		return []int{best}, nil
	}
	x, y, err := bestIndependentPair(ctx, obj, m, pool)
	if err != nil {
		return nil, err
	}
	return matroid.ExtendToBasis(m, []int{x, y})
}
