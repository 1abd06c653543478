package core

import (
	"context"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/setfunc"
)

// scanner shards a State's evaluator scans across an engine pool: the
// greedy round's argmax for non-modular quality (rounds.go), the swap scan,
// and the matroid greedy's feasible addition. With modular quality the swap
// scan runs the slice kernel of kernel.go instead, and the greedy round
// never builds a scanner. Evaluator scans score through per-worker
// evaluators that the scanner amortizes across rounds: every worker beyond
// the first gets a private clone that the caller keeps in sync via
// added/swapped after each state mutation.
//
// The scorer closures, the swap kernel's state and the factories handed to
// the engine are built once per scanner and reused for every round, so a
// steady-state serial scan allocates nothing; captured state (State fields,
// swap-scan parameters) is updated in place between rounds. Parallel scans
// additionally pay the engine's goroutine fan-out, nothing per candidate.
//
// The scans only read State fields (in, du, members) and the metric, so they
// are safe to run concurrently between mutations; all selection rules are
// total orders (max score, ties to the lowest index), making parallel runs
// byte-identical to serial ones whenever candidate scores are pure functions
// of the frozen state. That holds for every scan with modular quality
// (weight lookups), and for marginal scans and swap probes of this package's
// submodular evaluators (coverage marginals read integer counts, facility
// marginals read stored similarity maxima). Only a user-supplied Function
// routed through the order-sensitive generic evaluator can, in principle,
// resolve an exact floating-point tie differently under a different shard
// layout.
type scanner struct {
	st   *State
	pool *engine.Pool
	ctx  context.Context     // optional; cancels scans mid-stride (nil = never)
	evs  []setfunc.Evaluator // lazily built clones for workers ≥ 1

	// Cached per-worker greedy-rule scorers (see marginalFactory); engine
	// factories run on the caller's goroutine, so the lazy construction
	// needs no locking.
	scorers []engine.Scorer

	// Swap-scan parameters, staged by bestSwap before each scan so the
	// cached swap scorers read them without per-round captures. The filter
	// is worker-aware so each scan worker can probe matroid feasibility
	// through its own scratch (see LocalSearch's per-worker Probers).
	swapMembers   []int
	swapThreshold float64
	swapFilter    func(worker, out, in int) bool
	swapScorers   []engine.PairScorer
	swapFactory   func(worker int) engine.PairScorer

	// Modular quality runs the swap kernel instead (kernel.go): the
	// per-shard swap winners and the swap shard body, built on first use
	// and reused across rounds.
	swapBest []engine.Best
	swapBody func(worker, lo, hi int)
}

func newScanner(st *State, pool *engine.Pool) *scanner {
	return newScannerCtx(nil, st, pool)
}

// newScannerCtx is newScanner with a cancellation context threaded into
// every engine scan, so a solve abandoned by its caller stops mid-scan
// rather than at the next round boundary. ctxErr(ctx) is the caller-side
// check after each scan.
func newScannerCtx(ctx context.Context, st *State, pool *engine.Pool) *scanner {
	return &scanner{st: st, pool: pool, ctx: ctx}
}

// ctxErr reports the context's error; a nil context never errors.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// evaluator returns the quality evaluator for one scan worker. The engine
// contract guarantees this is called on the caller's goroutine, so the lazy
// clone construction needs no locking.
func (sc *scanner) evaluator(worker int) setfunc.Evaluator {
	if worker == 0 || sc.st.modular != nil {
		return sc.st.f
	}
	for len(sc.evs) <= worker {
		sc.evs = append(sc.evs, nil)
	}
	if sc.evs[worker] == nil {
		ev := sc.st.obj.f.NewEvaluator()
		for _, u := range sc.st.members {
			ev.Add(u)
		}
		sc.evs[worker] = ev
	}
	return sc.evs[worker]
}

// added propagates a State.Add to the realized worker clones.
func (sc *scanner) added(u int) {
	for _, ev := range sc.evs {
		if ev != nil {
			ev.Add(u)
		}
	}
}

// swapped propagates a State.Swap to the realized worker clones.
func (sc *scanner) swapped(out, in int) {
	for _, ev := range sc.evs {
		if ev != nil {
			ev.Remove(out)
			ev.Add(in)
		}
	}
}

// marginalFactory returns the engine factory of the greedy round's
// evaluator scan: per worker, a cached scorer of every non-member's
// potential φ′_u(S) = ½f_u(S) + λ·d_u(S), or its objective marginal
// φ_u(S) = f_u(S) + λ·d_u(S) when oblivious. A scanner serves one rule.
func (sc *scanner) marginalFactory(oblivious bool) func(worker int) engine.Scorer {
	return func(worker int) engine.Scorer {
		for len(sc.scorers) <= worker {
			sc.scorers = append(sc.scorers, nil)
		}
		if sc.scorers[worker] == nil {
			st, ev := sc.st, sc.evaluator(worker)
			if oblivious {
				sc.scorers[worker] = func(u int) (float64, bool) {
					if st.in[u] {
						return 0, false
					}
					return objScore(ev.Marginal(u), st.obj.lambda, st.du[u]), true
				}
			} else {
				sc.scorers[worker] = func(u int) (float64, bool) {
					if st.in[u] {
						return 0, false
					}
					return potScore(ev.Marginal(u), st.obj.lambda, st.du[u]), true
				}
			}
		}
		return sc.scorers[worker]
	}
}

// swapScorer dispenses worker's cached swap-probe scorer; the scan
// parameters live on the scanner (staged by bestSwap), not in the closure.
func (sc *scanner) swapScorer(worker int) engine.PairScorer {
	for len(sc.swapScorers) <= worker {
		sc.swapScorers = append(sc.swapScorers, nil)
	}
	if sc.swapScorers[worker] == nil {
		st, ev, w := sc.st, sc.evaluator(worker), worker
		sc.swapScorers[worker] = func(in int) (float64, int, bool) {
			if st.in[in] {
				return 0, 0, false
			}
			bestOut, bestGain := -1, sc.swapThreshold
			for _, out := range sc.swapMembers {
				g := st.swapGainWith(ev, out, in)
				if g <= bestGain {
					continue
				}
				if sc.swapFilter != nil && !sc.swapFilter(w, out, in) {
					continue
				}
				bestOut, bestGain = out, g
			}
			if bestOut == -1 {
				return 0, 0, false
			}
			return bestGain, bestOut, true
		}
	}
	return sc.swapScorers[worker]
}

// bestSwap scans every pair (out ∈ members, in ∉ S) for the maximal
// SwapGain strictly above threshold, sharding over the incoming side.
// canSwap, when non-nil, filters pairs (e.g. matroid feasibility); it
// receives the scan worker's index so filters can keep per-worker scratch.
// The result's Index is the incoming element, Aux the outgoing one; ties
// break toward the lowest incoming index, then the earliest member.
//
// With modular quality the pass stages the member rows once and runs the
// swap kernel, splitting across the pool only when every shard scores at
// least kernelMinShard (in, out) pairs.
func (sc *scanner) bestSwap(members []int, threshold float64, canSwap func(worker, out, in int) bool) engine.Best {
	sc.swapMembers, sc.swapThreshold, sc.swapFilter = members, threshold, canSwap
	defer func() { sc.swapMembers, sc.swapFilter = nil, nil }() // drop references between rounds
	if sc.st.modular == nil {
		if sc.swapFactory == nil {
			sc.swapFactory = sc.swapScorer
		}
		return sc.pool.ArgMaxPairCtx(sc.ctx, sc.st.obj.N(), sc.swapFactory)
	}
	st := sc.st
	st.stage.stage(st, members)
	defer st.stage.release()
	workers := sc.pool.Workers()
	if cap(sc.swapBest) < workers {
		sc.swapBest = make([]engine.Best, workers)
	}
	sc.swapBest = sc.swapBest[:workers]
	for i := range sc.swapBest {
		sc.swapBest[i] = engine.Best{Index: -1}
	}
	if workers == 1 {
		sc.swapShard(0, 0, st.obj.N()) // direct call: a serial pass binds no closure
	} else {
		if sc.swapBody == nil {
			sc.swapBody = sc.swapShard
		}
		sc.pool.ForMin(st.obj.N(), max(1, kernelMinShard/max(1, len(members))), sc.swapBody)
	}
	best := engine.Best{Index: -1}
	for _, r := range sc.swapBest {
		// Strict > keeps the earlier shard (lower indices) on ties.
		if r.Index != -1 && (best.Index == -1 || r.Value > best.Value) {
			best = r
		}
	}
	return best
}

// swapShard runs the swap kernel over one shard of incoming candidates.
func (sc *scanner) swapShard(worker, lo, hi int) {
	st, sg := sc.st, &sc.st.stage
	if sg.f32 {
		sc.swapBest[worker] = swapRows(sc.ctx, sg.rows32, sg, st, sc.swapMembers, sc.swapThreshold, sc.swapFilter, worker, lo, hi)
	} else {
		sc.swapBest[worker] = swapRows(sc.ctx, sg.rows64, sg, st, sc.swapMembers, sc.swapThreshold, sc.swapFilter, worker, lo, hi)
	}
}

// BestSwap scans all (out ∈ S, in ∉ S) pairs across the pool and returns
// the pair of maximal SwapGain strictly above threshold, or ok = false when
// no such pair exists. It is the parallel form of the Section 6 oblivious
// update rule's argmax; ties break deterministically (lowest incoming index,
// then earliest member), so every worker count returns the same pair.
func (s *State) BestSwap(pool *engine.Pool, threshold float64, canSwap func(out, in int) bool) (out, in int, gain float64, ok bool) {
	var filter func(worker, out, in int) bool
	if canSwap != nil {
		filter = func(_, out, in int) bool { return canSwap(out, in) }
	}
	b := newScanner(s, pool).bestSwap(s.members, threshold, filter)
	if b.Index == -1 {
		return 0, 0, 0, false
	}
	return b.Aux, b.Index, b.Value, true
}

// BestSwapTouching is BestSwap over only the pairs with u on one side. It
// is for a caller that knows no other pair can score above threshold: every
// pair scored at most threshold at the last full scan, and since then only
// u's quality has changed, so the other pairs' scores are the same bits. A
// member u is the outgoing side against every non-member in ascending
// order, one staged row and O(n) pairs; a non-member u is the incoming side
// against the members in order, O(p) pairs. Scores, threshold and ties are
// BestSwap's (lowest incoming index, then earliest member), so under that
// precondition both return the same pair.
func (s *State) BestSwapTouching(u int, threshold float64) (out, in int, gain float64, ok bool) {
	if s.in[u] {
		b := newScanner(s, nil).bestSwap([]int{u}, threshold, nil)
		if b.Index == -1 {
			return 0, 0, 0, false
		}
		return b.Aux, b.Index, b.Value, true
	}
	out, gain = -1, threshold
	for _, m := range s.members {
		// swapGainWith reads d(u, m) as Distance(u, m): the value the
		// staged row of m holds at u, on every backend.
		if g := s.swapGainWith(s.f, m, u); g > gain {
			out, gain = m, g
		}
	}
	if out == -1 {
		return 0, 0, 0, false
	}
	return out, u, gain, true
}

// bestFeasibleAddition returns the non-member u maximizing the greedy
// potential among those with S + u independent (the GreedyMatroid step).
// The independence oracle is only consulted for candidates that would beat
// the worker's running best — CanAdd is by far the scan's dominant cost for
// transversal and graphic matroids. Matroid-constrained scans are one
// closure build per call (not per round): the feasibility short-circuit
// carries per-scan state, so the closures cannot be cached across rounds.
func (sc *scanner) bestFeasibleAddition(m matroid.Matroid, members []int) engine.Best {
	st := sc.st
	return sc.pool.ArgMaxCtx(sc.ctx, st.obj.N(), func(worker int) engine.Scorer {
		ev := sc.evaluator(worker)
		var pr matroid.Prober
		taken := false
		localBest := 0.0
		return func(u int) (float64, bool) {
			if st.in[u] {
				return 0, false
			}
			v := potScore(ev.Marginal(u), st.obj.lambda, st.du[u])
			// A candidate that cannot beat this shard's incumbent cannot
			// win the merged scan either; skip its feasibility check.
			if taken && v <= localBest {
				return 0, false
			}
			if !pr.CanAdd(m, members, u) {
				return 0, false
			}
			taken, localBest = true, v
			return v, true
		}
	})
}
