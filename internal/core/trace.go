package core

import (
	"fmt"
	"math"
	"sort"
)

// GreedyTrace records one greedy run's addition order and per-prefix
// objective values. The greedy family's selection rule is independent of the
// cardinality target — every round maximizes the same marginal over the same
// working set, ties broken toward the lowest index — so the k-prefix of a
// run to K ≥ k is the same additions in the same order, with the same
// floating-point accumulation, as a solo run to k. That prefix nesting is
// what lets the serving layer's batching dispatcher answer many coalesced
// queries of different cardinalities from one solve. SolveMultiTrace is the
// one way to record traces: its rounds are the ones every greedy solve runs
// (rounds.go), so a trace's prefixes are the solo solutions bit for bit.
//
// The best-pair opening (AlgoGreedyImproved) is the exception: its first two
// picks are the best pair, so prefixes only match solo runs for k ≥ 2.
// PrefixNested encodes that rule for dispatch layers.
type GreedyTrace struct {
	// Order is the addition order (ground-set indices, unsorted).
	Order []int
	// Value[i], FValue[i], Dispersion[i] are φ(S), f(S), d(S) after the
	// first i+1 additions.
	Value, FValue, Dispersion []float64
}

// Len returns how many additions the trace recorded — the solve's target, or
// less when the ground set ran out first.
func (t *GreedyTrace) Len() int { return len(t.Order) }

// Solution materializes the k-prefix as a Solution identical to what a solo
// solve with target k would have returned (k ≥ 2 for best-pair-opened
// traces). Targets above the recorded length clamp to it.
func (t *GreedyTrace) Solution(k int) *Solution {
	if k > len(t.Order) {
		k = len(t.Order)
	}
	members := append([]int(nil), t.Order[:k]...)
	sort.Ints(members)
	sol := &Solution{Members: members}
	if k > 0 {
		sol.Value, sol.FValue, sol.Dispersion = t.Value[k-1], t.FValue[k-1], t.Dispersion[k-1]
	}
	return sol
}

// PrefixNested reports whether the algorithm's solutions nest by prefix at
// cardinality target k: one traced run to K ≥ k answers every smaller
// target. Greedy and the oblivious ablation always nest; the best-pair
// opening nests only from k = 2 up (its opening differs from the k = 1
// greedy pick); local search, exact, and Gollapudi–Sharma never nest.
func PrefixNested(algo Algo, k int) bool {
	switch algo {
	case AlgoGreedy, AlgoOblivious:
		return true
	case AlgoGreedyImproved:
		return k >= 2
	default:
		return false
	}
}

// LambdaTarget is one (λ, K) query of a traced solve: run the greedy
// selection rule under trade-off λ to cardinality K.
type LambdaTarget struct {
	Lambda float64
	K      int
}

// MultiLambdaCapable reports whether SolveMultiTrace can answer the
// algorithm for several targets at once. The plain greedy and the oblivious
// ablation qualify: their entire trajectory is a sequence of single-element
// argmax rounds over (weight, d_u(S)) pairs, so runs under different λ share
// every round whose argmax coincides. The best-pair opening
// (AlgoGreedyImproved) does not — its first two picks are the best pair
// under its own λ, so there is no shared prefix to fold.
func MultiLambdaCapable(algo Algo) bool {
	return algo == AlgoGreedy || algo == AlgoOblivious
}

// SolveMultiTrace runs one greedy solve that answers every (λ, K) target at
// once, returning one trace per target, index-aligned. Each trace is
// bit-identical — same picks, same floating-point accumulations — to the
// solo solve of its target: the targets start on one branch of the round
// driver, and every pick of every branch goes through State.Add.
//
// The fold sharing is twofold. Within a round, one pass over the candidates
// loads each (weight, d_u(S)) pair once and scores it for every λ still
// growing on a branch. Across targets, λs whose argmax agrees stay on one
// branch and pay one d_u(S) row fold (AccumulateRow) for the shared pick —
// the O(n·d) dominant cost on compute-on-demand vector backends — instead of
// one per λ. A branch forks (an O(n) copy) only when argmaxes diverge; when
// the metric batches row reads (metric.RowBatcher), the diverged picks of a
// round are computed in one streaming pass and the per-branch folds hit the
// warmed cache.
//
// Requirements: spec.Algo must be prefix-nested (AlgoGreedy, AlgoOblivious
// or AlgoGreedyImproved) and spec.Constraint nil. More than one target
// additionally needs a MultiLambdaCapable algorithm and the modular weight
// sum as quality (other quality evaluators are stateful in member order and
// are not forked). spec.K and the objective's own λ are ignored — the
// targets govern; a single target with another λ solves on a copy of the
// objective rebound to it. spec.Ctx and spec.Pool are honored as in Solve.
func SolveMultiTrace(obj *Objective, spec Spec, targets []LambdaTarget) ([]*GreedyTrace, error) {
	if err := ctxErr(spec.Ctx); err != nil {
		return nil, err
	}
	if !PrefixNested(spec.Algo, 2) {
		return nil, fmt.Errorf("core: SolveMultiTrace: algorithm %d is not prefix-nested", spec.Algo)
	}
	if spec.Constraint != nil {
		return nil, fmt.Errorf("core: SolveMultiTrace: matroid constraints are not supported")
	}
	if len(targets) > 1 && !MultiLambdaCapable(spec.Algo) {
		return nil, fmt.Errorf("core: SolveMultiTrace: algorithm %d has a λ-dependent opening; it takes one target", spec.Algo)
	}
	if len(targets) > 1 && !obj.IsModular() {
		return nil, fmt.Errorf("core: SolveMultiTrace: %d targets require modular quality (got %T)", len(targets), obj.f)
	}
	for j, t := range targets {
		if t.Lambda < 0 || math.IsNaN(t.Lambda) || math.IsInf(t.Lambda, 0) {
			return nil, fmt.Errorf("core: SolveMultiTrace: target %d: lambda = %g, want finite and ≥ 0", j, t.Lambda)
		}
		if err := checkP(obj, t.K); err != nil {
			return nil, err
		}
	}
	traces := make([]*GreedyTrace, len(targets))
	for j, t := range targets {
		traces[j] = &GreedyTrace{
			Order:      make([]int, 0, t.K),
			Value:      make([]float64, 0, t.K),
			FValue:     make([]float64, 0, t.K),
			Dispersion: make([]float64, 0, t.K),
		}
	}
	if len(targets) == 0 {
		return traces, nil
	}
	if len(targets) == 1 && targets[0].Lambda != obj.lambda {
		rebound := *obj
		rebound.lambda = targets[0].Lambda
		obj = &rebound
	}
	// The root is a fresh State, not one from the scratch cache: with
	// pooled roots, perfbench's serve-read workload (a 20 000-item corpus
	// under writes) held about 2 MiB (6%) more live heap on a 2-vCPU VM,
	// for no CPU gain. Forks still come from the cache.
	st := obj.NewState()
	g := st.startRun(spec.Ctx, spec.Pool, spec.Algo == AlgoOblivious, targets, traces)
	defer g.finish()
	if err := g.run(spec.Algo == AlgoGreedyImproved); err != nil {
		return nil, err
	}
	return traces, nil
}
