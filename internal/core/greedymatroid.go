package core

import (
	"fmt"

	"maxsumdiv/internal/matroid"
)

// GreedyMatroid runs the Section 4 potential greedy under a matroid
// constraint: repeatedly add the feasible element maximizing
// φ′_u(S) = ½f_u(S) + λd_u(S) until S is a basis.
//
// The paper's Appendix proves this algorithm has UNBOUNDED approximation
// ratio for general matroids (even with modular f): on the two-block
// partition instance it greedily locks in the high-weight element a and can
// never reach the optimum that uses b instead. It is provided (a) to
// reproduce that negative result and (b) as a fast heuristic initializer for
// LocalSearch, which restores the 2-approximation (Theorem 2).
func GreedyMatroid(obj *Objective, m matroid.Matroid, opts ...GreedyOption) (*Solution, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil matroid")
	}
	if m.GroundSize() != obj.N() {
		return nil, fmt.Errorf("core: matroid ground size %d, objective has %d", m.GroundSize(), obj.N())
	}
	cfg := newGreedyCfg(opts)
	st := obj.NewState()
	members := []int{}
	if cfg.bestPairStart && m.Rank() >= 2 {
		x, y, err := bestIndependentPair(cfg.ctx, obj, m, cfg.pool)
		if err == nil {
			st.Add(x)
			st.Add(y)
			members = append(members, x, y)
		}
	}
	sc := newScannerCtx(cfg.ctx, st, cfg.pool)
	for st.Size() < m.Rank() {
		b := sc.bestFeasibleAddition(m, members)
		if err := ctxErr(cfg.ctx); err != nil {
			return nil, err
		}
		if b.Index == -1 {
			break // no feasible extension (shouldn't happen below rank)
		}
		st.Add(b.Index)
		sc.added(b.Index)
		members = append(members, b.Index)
	}
	return solutionFromState(st, 0), nil
}
