// Package dynamic implements Section 6 of the paper: maintaining a
// high-quality max-sum diversification solution (modular f) under weight
// and distance perturbations using the oblivious single-swap update rule,
// with the paper's per-perturbation-type guarantees:
//
//	Type I   weight increase    → 3-approx restored with 1 update (Thm 3)
//	Type II  weight decrease δ  → ⌈log_{(p−2)/(p−3)} w/(w−δ)⌉ updates (Thm 4);
//	                              a single update suffices when δ ≤ w/(p−2)
//	Type III distance increase  → 3-approx restored with 1 update (Thm 5)
//	Type IV  distance decrease  → 3-approx restored with 1 update (Thm 6)
//
// For p ≤ 3 a single update always suffices (Corollary 3). The package also
// provides the Figure 1 simulator (random V/E/M perturbation environments).
//
// A Session copies the weights and reads the distances it is given; its
// first distance perturbation or ground-set mutation copies them into a
// private metric.Dense, so the caller's metric is never written. A weight
// perturbation refreshes f(S) in O(p), or the whole state after a swap.
// The oblivious update's O(n·p) swap scan is the hot path of a dynamic
// deployment; Session.SetParallelism shards it across the worker pool of
// maxsumdiv/internal/engine with results identical to the serial scan.
// After a scan finds no improving swap, a run of weight changes to one
// item rescans only the swaps that item is part of
// (core.State.BestSwapTouching), and returns the pair the full scan would.
package dynamic
