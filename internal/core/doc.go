// Package core implements the paper's primary contribution: algorithms for
// max-sum diversification — maximizing φ(S) = f(S) + λ·Σ_{u,v∈S} d(u,v) for a
// normalized monotone (sub)modular quality function f and a metric d —
// subject to a cardinality or general matroid constraint, together with the
// baselines the paper evaluates against.
//
// # Algorithms and paper sections
//
//   - GreedyB (Section 4, Theorem 1): the non-oblivious vertex greedy, a
//     2-approximation under a cardinality constraint; with f ≡ 0 it is the
//     Ravi et al. dispersion greedy (Corollary 1, DispersionGreedy).
//   - GreedyA (Section 3 / Section 7 baseline): the Gollapudi–Sharma
//     reduction to max-sum dispersion plus the Hassin–Rubinstein–Tamir edge
//     greedy; modular quality only.
//   - LocalSearch (Section 5, Theorem 2): the oblivious single-swap local
//     search, a 2-approximation under any matroid constraint.
//   - GreedyMatroid (Section 4 / Appendix): the potential greedy under a
//     matroid — unbounded ratio in general, kept as the paper's negative
//     result and as a LocalSearch initializer.
//   - GreedyOblivious: the ablation of the non-oblivious ½-factor (no
//     guarantee; it measures what Theorem 1's potential buys).
//   - Exact / ExactMatroid: branch-and-bound optimal solvers for the OPT
//     columns of Tables 1, 3, 4, 8 and Figure 1.
//   - GreedyKnapsack, MMR: the conclusion's open knapsack question
//     (Sviridenko-style heuristic) and the Section 2 ancestor baseline.
//
// # Execution model
//
// All algorithms share the incremental State, which maintains d_u(S) for all
// u in O(n) per insertion — the Birnbaum–Goldman bookkeeping the paper
// quotes to make the greedy run in O(np) total. Every argmax-over-candidates
// step (marginal potentials, swap gains, edge weights, pair openings) can
// additionally be sharded across the bounded worker pool of
// maxsumdiv/internal/engine: pass core.WithPool to the greedy family or
// LSOptions.Pool to the local search. Selection rules are total orders
// (best score, ties to the lowest index), so parallel runs return solutions
// byte-identical to serial ones.
//
// Every solve of the single-pick greedy rule runs one round driver
// (rounds.go): GreedyB after its optional Table 3 opening, GreedyOblivious,
// the odd-p completions of GreedyA and HRTMatchingBased, State.Fill (the
// dynamic Session's refill) and SolveMultiTrace, the only traced entry
// point. A round scans every branch — a State plus the (λ, K) targets
// still sharing its picks — adds each branch's pick with State.Add, and
// forks the targets whose picks diverge onto a copy of the branch. Only
// GreedyMatroid keeps its own loop, because its rule filters candidates by
// feasibility.
//
// # Scan kernels
//
// With the modular (weight-sum) quality — the default of Index, the server
// and every benchmark workload — the two per-round scans the algorithms
// spend their time in run as loops over flat slices (kernel.go) instead of
// one scorer closure, one Evaluator and one Metric call per candidate:
//
//   - the (w, d_u) argmax of the one greedy round driver (rounds.go),
//     which every greedy-family solve runs: a round scans each branch once
//     for all of its growing λs (a solo solve is one branch with one λ);
//   - the swap scan of the local search and the Section 6 update, with the
//     p member rows staged once per pass.
//
// The argmax and swap kernels fan out only when every shard scores at
// least kernelMinShard (8192) candidates or (in, out) pairs: below that the
// goroutine fan-out costs more than the scan it splits. Kernel and
// evaluator paths share every score expression, so they pick the same
// candidates bit for bit (kernel_test.go pins them to frozen references).
//
// # Pair openings
//
// The Table 3 greedy opens with the best pair under ½f({x,y}) + λd(x,y),
// and the Section 5 local search seeds with the best independent pair
// under f({x,y}) + λd(x,y). Both come from one λ-free pair frontier
// (pairs.go): the pairs no earlier pair matches or beats in both
// f({x}) + f_y({x}) and d(x,y). It holds the opening of every λ and both
// scores, bit for bit, and is a few hundred pairs on cosine corpora. One
// pass over the C(n,2) pairs builds it, reading row x as a slice
// (DenseF32 rows directly, other backends through a per-worker scratch
// row) with rows sharded by equal pair count (engine.ArgMaxTriCtx), since
// row x holds n−1−x pairs. A per-row threshold against the frontier's
// Pareto staircase skips almost every pair with one compare, so a pass
// costs no more than the scan it replaced. A PairCache keeps a frontier
// across solves (Objective.WithPairCache, CachePairs); the Index keeps one
// per index and one per constraint it builds, so only the first opening
// pays the pass. Without a cache each opening runs its own pass.
package core
