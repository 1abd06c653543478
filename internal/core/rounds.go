package core

import (
	"context"
	"slices"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
)

// greedyRun is the one round driver of the greedy family. Greedy B (after
// its optional Table 3 opening), the oblivious ablation, the odd-p
// completions of Greedy A and of the matching baseline, the dynamic
// Session's refill and every traced or multi-λ solve run its rounds. Each
// round adds, on every live branch, the non-member maximizing the greedy
// potential ½f_u(S) + λd_u(S) (the objective marginal f_u(S) + λd_u(S) when
// oblivious), ties to the lowest index.
//
// A branch is a *State plus the targets that still share its trajectory; a
// solo solve is one branch with one target. Targets whose picks diverge
// fork: each diverging group continues on a copy of the branch drawn from
// the objective's scratch cache. Every pick goes through State.Add, so each
// target's trace holds, bit for bit, the accumulations of a solo solve of
// that target.
//
// The modular quality scans a branch with the (w, d_u) kernel, loading each
// (weight, d_u(S)) pair once for every λ still growing on it. Any other
// quality scans through per-worker evaluators; it only ever runs one branch
// with one target.
//
// A run lives on its root State (State.run), so a pooled State carries the
// scratch across solves and a steady-state round allocates nothing.
type greedyRun struct {
	ctx       context.Context
	pool      *engine.Pool
	oblivious bool
	targets   []LambdaTarget
	traces    []*GreedyTrace // index-aligned with targets; nil records nothing
	branchOf  []int          // target → index into branches
	branches  []*State       // [0] is the root; the rest are this run's forks
	picks     []int          // branch → this round's pick (-1: none)

	wdu     wduScan                        // modular scan, rebound per branch
	sc      *scanner                       // evaluator scan (non-modular only)
	factory func(worker int) engine.Scorer // sc's scorers for the run's rule

	solo     [1]LambdaTarget // backs targets of a solo run
	growing  []int           // targets growing on the branch being scanned
	distinct []int           // the round's distinct picks
	rows     [][]float32     // RowBatcher scratch
}

// driver returns st's round driver, building it on first use.
func (st *State) driver() *greedyRun {
	if st.run == nil {
		st.run = &greedyRun{}
	}
	return st.run
}

// startRun binds st's driver to a solve that grows st, as it stands, to
// every target. traces, when non-nil, receives each target's picks. Pair
// with finish.
func (st *State) startRun(ctx context.Context, pool *engine.Pool, oblivious bool, targets []LambdaTarget, traces []*GreedyTrace) *greedyRun {
	g := st.driver()
	g.ctx, g.pool, g.oblivious, g.targets, g.traces = ctx, pool, oblivious, targets, traces
	g.branches = append(g.branches[:0], st)
	g.branchOf = slices.Grow(g.branchOf[:0], len(targets))[:len(targets)]
	clear(g.branchOf)
	g.reserve(st)
	if st.modular == nil {
		g.sc = newScannerCtx(ctx, st, pool)
		g.factory = g.sc.marginalFactory(oblivious)
	}
	return g
}

// startSolo is startRun with one untraced target: the objective's λ, size p.
func (st *State) startSolo(ctx context.Context, pool *engine.Pool, p int, oblivious bool) *greedyRun {
	g := st.driver()
	g.solo[0] = LambdaTarget{Lambda: st.obj.lambda, K: p}
	return st.startRun(ctx, pool, oblivious, g.solo[:], nil)
}

// Fill extends the working set to p members (or the whole ground set, if
// smaller) by the paper's greedy rule: repeatedly add the non-member
// maximizing φ′_u(S) = ½f_u(S) + λ·d_u(S), ties to the lowest index,
// sharding each scan across pool (nil = serial). It returns ctx's error
// when the fill is abandoned mid-scan; a nil ctx never cancels.
func (st *State) Fill(ctx context.Context, pool *engine.Pool, p int) error {
	return st.fill(ctx, pool, p, false)
}

// fill is Fill under either rule (oblivious: the objective marginal).
func (st *State) fill(ctx context.Context, pool *engine.Pool, p int, oblivious bool) error {
	g := st.startSolo(ctx, pool, p, oblivious)
	defer g.finish()
	return g.rounds()
}

// finish releases the run's forks and drops its references to the caller's
// context, traces and rows.
func (g *greedyRun) finish() {
	root := g.branches[0]
	for _, f := range g.branches[1:] {
		root.obj.ReleaseState(f)
	}
	clear(g.branches)
	clear(g.rows[:cap(g.rows)])
	g.branches, g.rows = g.branches[:0], g.rows[:0]
	g.ctx, g.pool, g.targets, g.traces, g.sc, g.factory = nil, nil, nil, nil, nil, nil
	g.wdu.w, g.wdu.du, g.wdu.in, g.wdu.ctx = nil, nil, nil, nil
}

// reserve grows st's member capacity to the largest target, so rounds
// append without reallocating.
func (g *greedyRun) reserve(st *State) {
	need := 0
	for _, t := range g.targets {
		need = max(need, t.K)
	}
	if need = min(need, len(st.in)); cap(st.members) < need {
		st.members = slices.Grow(st.members, need-len(st.members))
	}
}

// run drives the solve to completion, opening with the Table 3 best pair
// when bestPair is set and the (single) target takes at least two.
func (g *greedyRun) run(bestPair bool) error {
	if bestPair && g.targets[0].K >= 2 {
		root := g.branches[0]
		x, y := bestPotentialPair(g.ctx, root.obj, g.pool)
		if err := ctxErr(g.ctx); err != nil {
			return err
		}
		g.add(0, x)
		g.add(0, y)
	}
	return g.rounds()
}

// rounds runs rounds until no branch grows.
func (g *greedyRun) rounds() error {
	for {
		if grew, err := g.round(); err != nil || !grew {
			return err
		}
	}
}

// round runs one greedy round on every branch and reports whether any grew.
// Every branch is scanned before any pick is added, so a fork copies its
// parent as it stood when the round began.
func (g *greedyRun) round() (bool, error) {
	if err := ctxErr(g.ctx); err != nil {
		return false, err
	}
	live := len(g.branches)
	g.picks = slices.Grow(g.picks[:0], live)[:live]
	for b := range live {
		u := g.scan(b) // may fork, growing g.picks
		g.picks[b] = u
	}
	if err := ctxErr(g.ctx); err != nil {
		return false, err
	}
	// When picks diverged and the metric batches row reads, compute the
	// round's distinct rows in one streaming pass; the folds of State.Add
	// then hit the warmed cache.
	if len(g.picks) > 1 {
		if batcher, ok := g.branches[0].obj.d.(metric.RowBatcher); ok {
			g.distinct = g.distinct[:0]
			for _, u := range g.picks {
				if u != -1 && !slices.Contains(g.distinct, u) {
					g.distinct = append(g.distinct, u)
				}
			}
			if len(g.distinct) > 1 {
				g.rows = batcher.Rows(g.distinct, g.rows)
			}
		}
	}
	grew := false
	for b, u := range g.picks {
		if u != -1 {
			g.add(b, u)
			grew = true
		}
	}
	return grew, nil
}

// scan returns branch b's pick for this round: -1 when none of its targets
// is still growing, no candidate is eligible, or the context ended the
// scan. Growing targets whose pick differs from the first one's move to a
// fork made this round, one fork per distinct pick.
func (g *greedyRun) scan(b int) int {
	st := g.branches[b]
	g.growing = g.growing[:0]
	for j, t := range g.targets {
		if g.branchOf[j] == b && t.K > st.Size() {
			g.growing = append(g.growing, j)
		}
	}
	if len(g.growing) == 0 {
		return -1
	}
	if g.sc != nil {
		return g.pool.ArgMaxCtx(g.ctx, st.obj.N(), g.factory).Index
	}
	k := &g.wdu
	k.w, k.du, k.in, k.oblivious, k.ctx = st.modular.Weights(), st.du, st.in, g.oblivious, g.ctx
	k.lambdas = k.lambdas[:0]
	for _, j := range g.growing {
		k.lambdas = append(k.lambdas, g.targets[j].Lambda)
	}
	res := k.run(g.pool, len(st.in))
	pick := res[0].idx
	if pick == -1 || ctxErr(g.ctx) != nil {
		return -1
	}
	forks := len(g.branches)
	for i, r := range res[1:] {
		if r.idx == pick {
			continue
		}
		f := forks
		for f < len(g.branches) && g.picks[f] != r.idx {
			f++
		}
		if f == len(g.branches) {
			g.fork(st, r.idx)
		}
		g.branchOf[g.growing[i+1]] = f
	}
	return pick
}

// fork continues a diverging group on a copy of st drawn from the scratch
// cache; u is the group's pick this round.
func (g *greedyRun) fork(st *State, u int) {
	f := st.obj.AcquireState()
	f.loadFrom(st)
	g.reserve(f)
	g.branches = append(g.branches, f)
	g.picks = append(g.picks, u)
}

// add applies pick u to branch b and records it on every target of the
// branch that has not reached its size.
func (g *greedyRun) add(b, u int) {
	st := g.branches[b]
	st.Add(u)
	if g.sc != nil {
		g.sc.added(u)
	}
	if g.traces == nil {
		return
	}
	size, f, d := st.Size(), st.FValue(), st.Dispersion()
	for j, t := range g.targets {
		if g.branchOf[j] != b || t.K < size {
			continue
		}
		tr := g.traces[j]
		tr.Order = append(tr.Order, u)
		tr.Value = append(tr.Value, objScore(f, t.Lambda, d))
		tr.FValue = append(tr.FValue, f)
		tr.Dispersion = append(tr.Dispersion, d)
	}
}
