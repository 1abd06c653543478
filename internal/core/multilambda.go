package core

import (
	"fmt"
	"math"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// LambdaTarget is one (λ, K) query a multi-λ shared solve must answer: run
// the greedy selection rule under trade-off λ to cardinality K.
type LambdaTarget struct {
	Lambda float64
	K      int
}

// MultiLambdaCapable reports whether SolveMultiTrace can answer the
// algorithm. The plain greedy and the oblivious ablation qualify: their
// entire trajectory is a sequence of single-element argmax rounds over
// (weight, d_u(S)) pairs, so runs under different λ share every round whose
// argmax coincides. The best-pair opening (AlgoGreedyImproved) does not —
// its first two picks come from a λ-dependent pair scan, so there is no
// shared prefix to fold.
func MultiLambdaCapable(algo Algo) bool {
	return algo == AlgoGreedy || algo == AlgoOblivious
}

// mlBranch is one live trajectory of a multi-λ solve: the working set shared
// by every target whose greedy run has made exactly these picks in this
// order. All fields mirror State's accumulation exactly (same operations in
// the same order), so a branch's recorded values are bit-identical to the
// solo solve of each target it carries.
type mlBranch struct {
	targets []int // indices into the targets slice, ascending
	in      []bool
	members []int
	du      []float64 // d_u(S) for every u, maintained by row folds
	sumD    float64   // d(S)
	fsum    float64   // f(S) = Σ w(member), accumulated in addition order
}

// fork clones the working set so a diverging λ group can continue on its own
// trajectory. O(n) for the membership and d_u(S) arrays.
func (b *mlBranch) fork(targets []int) *mlBranch {
	return &mlBranch{
		targets: targets,
		in:      append([]bool(nil), b.in...),
		members: append([]int(nil), b.members...),
		du:      append([]float64(nil), b.du...),
		sumD:    b.sumD,
		fsum:    b.fsum,
	}
}

// SolveMultiTrace runs one shared greedy solve that answers every (λ, K)
// target at once, returning one trace per target, index-aligned. Each trace
// is bit-identical — same picks, same floating-point accumulations — to the
// trace a solo traced solve of that target would record, because every
// branch replays State.Add's operations in the same order and scores
// candidates through the same potScore/objScore helpers as the solo
// scanners.
//
// The fold sharing is twofold. Within a round, one pass over the candidates
// loads each (weight, d_u(S)) pair once and scores it for every λ still
// growing on that branch. Across targets, λs whose argmax agrees stay on one
// branch and pay one d_u(S) row fold (AccumulateRow) for the shared pick —
// the O(n·d) dominant cost on compute-on-demand vector backends — instead of
// one per λ. Branches fork (O(n) copy) only when argmaxes diverge; when the
// metric batches row reads (metric.RowBatcher), the diverged picks of a
// round are computed in one streaming pass and the per-branch folds hit the
// warmed cache.
//
// Requirements: spec.Algo must be MultiLambdaCapable, the quality must be
// the modular weight sum (the serving layer's quality; general submodular
// evaluators are stateful in member order and cannot be forked cheaply), and
// spec.Constraint must be nil. spec.K and the objective's own λ are ignored
// — the targets govern. spec.Ctx and spec.Pool are honored as in Solve.
func SolveMultiTrace(obj *Objective, spec Spec, targets []LambdaTarget) ([]*GreedyTrace, error) {
	if err := ctxErr(spec.Ctx); err != nil {
		return nil, err
	}
	if !MultiLambdaCapable(spec.Algo) {
		return nil, fmt.Errorf("core: SolveMultiTrace: algorithm %d has λ-dependent openings; only the single-pick greedy family folds", spec.Algo)
	}
	if spec.Constraint != nil {
		return nil, fmt.Errorf("core: SolveMultiTrace: matroid constraints are not supported")
	}
	mod, ok := obj.f.(*setfunc.Modular)
	if !ok {
		return nil, fmt.Errorf("core: SolveMultiTrace requires modular quality (got %T)", obj.f)
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

	n := obj.N()
	rowAcc, _ := obj.d.(metric.RowAccumulator)
	batcher, _ := obj.d.(metric.RowBatcher)
	pool := spec.Pool
	k := &wduScan{w: mod.Weights(), oblivious: spec.Algo == AlgoOblivious, ctx: spec.Ctx}

	root := &mlBranch{
		targets: make([]int, len(targets)),
		in:      make([]bool, n),
		du:      make([]float64, n),
	}
	for j := range targets {
		root.targets[j] = j
	}
	branches := []*mlBranch{root}

	var growing []int
	var picks []wduBest
	var rowScratch [][]float32

	for {
		if err := ctxErr(spec.Ctx); err != nil {
			return nil, err
		}
		// Phase 1: scan every branch (reads only frozen branch state) and
		// split diverging λ groups into forked branches, collecting the
		// round's (branch, pick) adds.
		type add struct {
			br   *mlBranch
			pick int
		}
		var adds []add
		next := make([]*mlBranch, 0, len(branches))
		for _, br := range branches {
			growing = growing[:0]
			for _, ti := range br.targets {
				if targets[ti].K > len(br.members) {
					growing = append(growing, ti)
				}
			}
			if len(growing) == 0 {
				continue // every target on this branch is complete
			}
			picks = br.scan(k, pool, targets, growing)
			if err := ctxErr(spec.Ctx); err != nil {
				return nil, err
			}
			// Group the growing targets by their pick, preserving target
			// order; the first group keeps this branch, later groups fork.
			// (checkP guarantees an eligible candidate exists, so picks are
			// only -1 on the defensive ground-set-exhausted path: that
			// branch simply stops growing, exactly as a solo run would.)
			if picks[0].idx == -1 {
				continue
			}
			groupPick := make([]int, 0, len(growing))
			var forked []*mlBranch
			for gj, ti := range growing {
				pick := picks[gj].idx
				found := -1
				for gi, p := range groupPick {
					if p == pick {
						found = gi
						break
					}
				}
				switch {
				case found == 0:
					// Stays with the kept branch.
				case found > 0:
					forked[found-1].targets = append(forked[found-1].targets, ti)
					br.targets = removeTarget(br.targets, ti)
				case len(groupPick) == 0:
					groupPick = append(groupPick, pick)
				default:
					groupPick = append(groupPick, pick)
					nb := br.fork([]int{ti})
					br.targets = removeTarget(br.targets, ti)
					forked = append(forked, nb)
				}
			}
			adds = append(adds, add{br, groupPick[0]})
			next = append(next, br)
			for gi, nb := range forked {
				adds = append(adds, add{nb, groupPick[gi+1]})
				next = append(next, nb)
			}
		}
		branches = next
		if len(adds) == 0 {
			return traces, nil
		}

		// Phase 2: when picks diverged this round and the metric batches row
		// reads, compute all distinct rows in one streaming pass; the
		// per-branch folds below then hit the warmed cache.
		if batcher != nil && len(adds) > 1 {
			distinct := make([]int, 0, len(adds))
			for _, a := range adds {
				if !contains(distinct, a.pick) {
					distinct = append(distinct, a.pick)
				}
			}
			if len(distinct) > 1 {
				rowScratch = batcher.Rows(distinct, rowScratch)
			}
		}

		// Phase 3: apply each add in State.Add's exact operation order and
		// record the new prefix on every growing target of the branch.
		for _, a := range adds {
			br, pick := a.br, a.pick
			br.fsum += mod.Weight(pick)
			br.in[pick] = true
			br.members = append(br.members, pick)
			br.sumD += br.du[pick]
			if rowAcc != nil {
				rowAcc.AccumulateRow(pick, 1, br.du)
			} else {
				d := obj.d
				for v := range br.du {
					br.du[v] += d.Distance(pick, v)
				}
			}
			size := len(br.members)
			for _, ti := range br.targets {
				if targets[ti].K < size {
					continue // this target finished in an earlier round
				}
				tr := traces[ti]
				tr.Order = append(tr.Order, pick)
				tr.FValue = append(tr.FValue, br.fsum)
				tr.Dispersion = append(tr.Dispersion, br.sumD)
				tr.Value = append(tr.Value, objScore(br.fsum, targets[ti].Lambda, br.sumD))
			}
		}
	}
}

// scan runs one fused argmax round for every growing λ on the branch
// through the (w, d_u) kernel: one pass over the candidates loads each
// (weight, d_u(S)) pair once and scores it under every λ, with the
// kernel's total order (max score, ties to the lowest index) — the same
// loop a solo scan runs with one λ, so each λ's pick is the one its solo
// scan would make. Returns one pick per growing target (-1 when no
// candidate is eligible), in storage reused across rounds.
func (b *mlBranch) scan(k *wduScan, pool *engine.Pool, targets []LambdaTarget, growing []int) []wduBest {
	k.du, k.in = b.du, b.in
	k.lambdas = k.lambdas[:0]
	for _, ti := range growing {
		k.lambdas = append(k.lambdas, targets[ti].Lambda)
	}
	return k.run(pool, len(b.in))
}

// removeTarget deletes one target index from a branch's ascending list,
// preserving order.
func removeTarget(ts []int, ti int) []int {
	for i, t := range ts {
		if t == ti {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

// contains reports membership in a small int slice.
func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
