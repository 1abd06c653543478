package server

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"maxsumdiv/internal/core"
)

// defaultBatch is Config.Batch's default: how many full-scope queries one
// batched solve may serve. Identical concurrent queries are the common case
// the coalescer targets (a hot feed re-requested by many users), and a
// handful of joiners already amortizes the scan; past ~16 the win flattens
// while result fan-out latency grows.
const defaultBatch = 16

// errJoinRetry tells solveFull to fall back to a solo solve rather than fail:
// the solve this query joined died of the *leader's* context while this
// query's own context is still live, or both generations of its key are
// full.
var errJoinRetry = errors.New("server: batch: leader cancelled, retry solo")

// dispatcher coalesces in-flight full-scope queries that pin the same epoch
// into gangs: the first query for a key runs the solve (the leader), queries
// arriving while it runs either join it (when its frozen targets cover them)
// or gather into the next generation, and every member materializes its
// answer from the one result. One AccumulateRow pass per candidate scan thus
// feeds every coalesced query's accumulator instead of each query redoing an
// identical O(n·k) scan. A lone query is a gang of one. Epochs are immutable
// and the solvers deterministic, so a coalesced answer is byte-identical to
// the solo one — pinned by TestServerBatchedQueriesMatchSolo.
type dispatcher struct {
	limit int // max queries per batched solve; ≤ 1 disables coalescing
	mu    sync.Mutex
	gangs map[gangKey]*gang

	coalesced atomic.Uint64 // queries answered by joining another query's solve
	solo      atomic.Uint64 // queries that ran a solve themselves
}

func newDispatcher(limit int) *dispatcher {
	return &dispatcher{limit: limit, gangs: make(map[gangKey]*gang)}
}

// enabled reports whether the dispatcher coalesces at all.
func (d *dispatcher) enabled() bool { return d.limit > 1 }

// counters returns (coalesced, solo) query counts for /stats.
func (d *dispatcher) counters() (uint64, uint64) {
	return d.coalesced.Load(), d.solo.Load()
}

// gangKey identifies solves that one run can answer: same pinned epoch, same
// algorithm, and — only where the algorithm needs them — same λ and k. λ
// stays zero for the single-pick greedy family (core.MultiLambdaCapable):
// core.SolveMultiTrace answers every (λ, k) member from shared scan rounds,
// paying one d_u(S) row fold per shared pick instead of one per λ. k stays
// zero for prefix-nested runs (core.PrefixNested): one trace's k-prefix
// answers every smaller k. Every other algorithm coalesces only exact
// duplicates. Build keys with keyFor.
type gangKey struct {
	seq    uint64
	algo   core.Algo
	lambda float64
	k      int
}

// keyFor returns the gang key of a (λ, k) query for algo on epoch seq.
func keyFor(seq uint64, algo core.Algo, lambda float64, k int) gangKey {
	key := gangKey{seq: seq, algo: algo, lambda: lambda, k: k}
	if core.MultiLambdaCapable(algo) {
		key.lambda = 0
	}
	if core.PrefixNested(algo, k) {
		key.k = 0
	}
	return key
}

// answer is one λ's result of a dispatched solve; each member reads its own
// k from it. A *core.GreedyTrace answers every k up to its length by prefix;
// a fixedSolution answers the one k of a non-nested key.
type answer interface {
	Solution(k int) *core.Solution
}

// fixedSolution is the answer of a solver that does not nest by prefix:
// every member of its key asked for the same k.
type fixedSolution struct{ sol *core.Solution }

func (f fixedSolution) Solution(int) *core.Solution { return f.sol }

// multiCall is one generation of a gang: the (λ → max k) targets it will
// answer, everyone riding it, and the per-λ answers once run. Lifecycle:
// members gather (kmax still mutable) until the call is promoted to run —
// immediately for the first arrival on an idle key, otherwise when the
// previous generation finishes — then the first gathered member to wake
// claims leadership, freezes kmax, and runs the solve with its own context
// and pinned epoch. answers/err are written before done closes and read only
// after; the channel orders the accesses.
type multiCall struct {
	done     chan struct{} // closed after answers/err are written
	promoted chan struct{} // closed when the call may run (leadership claimable)
	waiters  int           // queries this call will answer, leader included
	kmax     map[float64]int
	claimed  bool // a member claimed leadership; kmax is frozen
	answers  map[float64]answer
	err      error
}

func newMultiCall() *multiCall {
	return &multiCall{
		done:     make(chan struct{}),
		promoted: make(chan struct{}),
		kmax:     make(map[float64]int),
	}
}

// gang is the per-key generation pair: the running (or claimable) call and
// the next one gathering members the running call's frozen targets do not
// cover. next exists only while running does; whoever finishes or abandons
// running promotes it.
type gang struct {
	running *multiCall
	next    *multiCall
}

// runFunc runs one gang's solve over its frozen targets (λ-sorted, one per
// distinct λ at its max k) and returns one answer per λ. Only keys of the
// single-pick greedy family carry more than one target.
type runFunc func(targets []core.LambdaTarget) (map[float64]answer, error)

// dispatch answers one (λ, k) query: join the running solve when it covers
// the target, otherwise gather into the next generation and either claim its
// leadership when promoted or ride the member that did. The caller reads its
// k from the returned answer. Returns errJoinRetry when the joined leader
// died of its own cancellation (caller still live → solve solo) or when both
// generations are full.
func (d *dispatcher) dispatch(ctx context.Context, key gangKey, lambda float64, k int, run runFunc) (answer, error) {
	d.mu.Lock()
	g := d.gangs[key]
	if g == nil {
		g = &gang{}
		d.gangs[key] = g
	}
	if g.running == nil {
		// Idle key: lead immediately.
		call := newMultiCall()
		call.claimed = true
		close(call.promoted)
		call.waiters = 1
		call.kmax[lambda] = k
		g.running = call
		d.mu.Unlock()
		return d.runGang(key, g, call, lambda, []core.LambdaTarget{{Lambda: lambda, K: k}}, run)
	}
	if call := g.running; call.claimed {
		if kc, ok := call.kmax[lambda]; ok && k <= kc && call.waiters < d.limit {
			// The running solve covers this target: join and wait for it.
			call.waiters++
			d.mu.Unlock()
			return d.joinGang(ctx, call, lambda)
		}
	}
	// Gather: enroll in the running call while its targets are still
	// unfrozen, otherwise in the next generation.
	call := g.running
	if call.claimed || call.waiters >= d.limit {
		if g.next == nil {
			g.next = newMultiCall()
		}
		call = g.next
		if call.waiters >= d.limit {
			d.mu.Unlock()
			return nil, errJoinRetry // both generations full; solve solo
		}
	}
	call.waiters++
	if kc, ok := call.kmax[lambda]; !ok || k > kc {
		call.kmax[lambda] = k
	}
	d.mu.Unlock()

	select {
	case <-call.promoted:
	case <-ctx.Done():
		// Withdraw before the call could run. If this was the last member of
		// an unclaimed call, clean it up so the gang cannot deadlock: an
		// abandoned next generation is dropped, an abandoned running one
		// promotes its successor.
		d.mu.Lock()
		call.waiters--
		if call.waiters == 0 && !call.claimed {
			switch call {
			case g.next:
				g.next = nil
			case g.running:
				d.promoteLocked(key, g)
			}
		}
		d.mu.Unlock()
		return nil, ctx.Err()
	}
	d.mu.Lock()
	if !call.claimed {
		// First member awake claims leadership and freezes the targets.
		call.claimed = true
		targets := make([]core.LambdaTarget, 0, len(call.kmax))
		for l, kc := range call.kmax {
			targets = append(targets, core.LambdaTarget{Lambda: l, K: kc})
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].Lambda < targets[j].Lambda })
		d.mu.Unlock()
		return d.runGang(key, g, call, lambda, targets, run)
	}
	d.mu.Unlock()
	return d.joinGang(ctx, call, lambda)
}

// runGang runs the solve as call's leader, publishes the result, and
// promotes the next generation.
func (d *dispatcher) runGang(key gangKey, g *gang, call *multiCall, lambda float64,
	targets []core.LambdaTarget, run runFunc,
) (answer, error) {
	// Yield once before solving: identical queries already runnable on this
	// processor then reach the dispatcher and join the call, instead of
	// queuing behind a solve that never parks (the modular scan kernels run
	// inline below their fan-out minimum) and leading one gang each.
	runtime.Gosched()
	call.answers, call.err = run(targets)
	d.mu.Lock()
	if g.running == call {
		d.promoteLocked(key, g)
	}
	d.mu.Unlock()
	close(call.done)
	d.solo.Add(1)
	if call.err != nil {
		return nil, call.err
	}
	return call.answers[lambda], nil
}

// promoteLocked retires the running call: the gathered next generation (if
// any) becomes runnable, otherwise the key goes idle. Caller holds d.mu.
func (d *dispatcher) promoteLocked(key gangKey, g *gang) {
	g.running, g.next = g.next, nil
	if g.running != nil {
		close(g.running.promoted)
	} else {
		delete(d.gangs, key)
	}
}

// joinGang waits for call's leader and materializes this member's answer:
// the member's own cancellation wins, and a leader that died of *its*
// context turns into errJoinRetry so the member can solve solo.
func (d *dispatcher) joinGang(ctx context.Context, call *multiCall, lambda float64) (answer, error) {
	select {
	case <-call.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if call.err != nil {
		if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, errJoinRetry
		}
		return nil, call.err
	}
	d.coalesced.Add(1)
	return call.answers[lambda], nil
}
