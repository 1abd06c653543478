package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// Objective bundles the three ingredients of the max-sum diversification
// problem: the quality function f, the trade-off λ, and the metric d.
type Objective struct {
	f      setfunc.Source
	lambda float64
	d      metric.Metric
	// scratch pools solver scratch (see AcquireState): every State carries
	// two O(n) slices plus a quality evaluator, and the one-shot solvers
	// (greedy, local search) would otherwise allocate and discard a full
	// set per call. NewObjective gives each objective a private cache;
	// NewObjectiveCached shares one across many short-lived objectives over
	// the same metric (the Index/Query serving pattern, where λ and the
	// quality function are per-query but the ground set is not).
	scratch *StateCache
	// pairs, when non-nil, holds the frontier of the openings over all
	// pairs (WithPairCache); nil builds one per opening.
	pairs *PairCache
}

// StateCache pools solver scratch (States) across solves — and, when shared
// via NewObjectiveCached, across distinct Objectives. All objectives drawing
// from one cache MUST present the same metric over the same ground set;
// λ and the quality function may differ per objective (a State's distance
// bookkeeping is λ-independent, and adoption rebuilds the quality evaluator
// whenever the quality source changed).
type StateCache struct {
	pool sync.Pool
}

// NewStateCache returns an empty solver-scratch cache for sharing across
// objectives built with NewObjectiveCached.
func NewStateCache() *StateCache { return &StateCache{} }

// NewObjective validates and builds an objective. f and d must agree on the
// ground-set size and λ must be finite and non-negative.
func NewObjective(f setfunc.Source, lambda float64, d metric.Metric) (*Objective, error) {
	return NewObjectiveCached(f, lambda, d, nil)
}

// NewObjectiveCached is NewObjective drawing solver scratch from a shared
// cache (nil allocates a private one). It is the cheap per-query constructor
// of the serving path: the expensive ingredients (metric backend, quality
// source) are built once by the caller and every query-time objective is a
// small struct sharing them plus the cache.
func NewObjectiveCached(f setfunc.Source, lambda float64, d metric.Metric, cache *StateCache) (*Objective, error) {
	if f == nil || d == nil {
		return nil, fmt.Errorf("core: nil quality function or metric")
	}
	if f.GroundSize() != d.Len() {
		return nil, fmt.Errorf("core: ground sizes disagree: f has %d, d has %d", f.GroundSize(), d.Len())
	}
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("core: lambda = %g, want finite ≥ 0", lambda)
	}
	if cache == nil {
		cache = NewStateCache()
	}
	return &Objective{f: f, lambda: lambda, d: d, scratch: cache}, nil
}

// N returns the ground-set size.
func (o *Objective) N() int { return o.f.GroundSize() }

// Lambda returns the trade-off parameter.
func (o *Objective) Lambda() float64 { return o.lambda }

// F returns the quality function.
func (o *Objective) F() setfunc.Source { return o.f }

// Metric returns the distance oracle.
func (o *Objective) Metric() metric.Metric { return o.d }

// Dispersion returns d(S) = Σ_{ {u,v} ⊆ S } d(u,v).
func (o *Objective) Dispersion(S []int) float64 {
	var sum float64
	for i := 1; i < len(S); i++ {
		for j := 0; j < i; j++ {
			sum += o.d.Distance(S[i], S[j])
		}
	}
	return sum
}

// Value returns φ(S) = f(S) + λ·d(S), recomputed from scratch.
func (o *Objective) Value(S []int) float64 {
	return o.f.Value(S) + o.lambda*o.Dispersion(S)
}

// Solution is the result of a solver run.
type Solution struct {
	// Members is the selected subset, sorted ascending.
	Members []int
	// Value is φ(S) = FValue + λ·Dispersion.
	Value float64
	// FValue is f(S).
	FValue float64
	// Dispersion is d(S).
	Dispersion float64
	// Swaps is the number of improving swaps a local search applied (zero
	// for one-pass algorithms).
	Swaps int
}

// Contains reports whether u was selected.
func (s *Solution) Contains(u int) bool {
	i := sort.SearchInts(s.Members, u)
	return i < len(s.Members) && s.Members[i] == u
}

// solutionFromState snapshots a State into a Solution.
func solutionFromState(st *State, swaps int) *Solution {
	members := st.Members()
	sort.Ints(members)
	return &Solution{
		Members:    members,
		Value:      st.Value(),
		FValue:     st.FValue(),
		Dispersion: st.Dispersion(),
		Swaps:      swaps,
	}
}

// State incrementally tracks a working subset S together with f(S), d(S) and
// the marginal distances d_u(S) for every ground element u. Add and Remove
// cost O(n) plus one quality-evaluator update; marginals cost O(1) plus one
// quality marginal.
type State struct {
	obj     *Objective
	f       setfunc.Evaluator
	fSrc    setfunc.Source // the Source st.f evaluates (adoption reuse check)
	cache   *StateCache    // where ReleaseState returns this state
	in      []bool
	members []int
	du      []float64             // du[v] = Σ_{u∈S} d(v,u), maintained for ALL v
	sumD    float64               // d(S)
	modular *setfunc.Modular      // non-nil fast path when f is modular
	rowAcc  metric.RowAccumulator // non-nil bulk row fold (Dense, DenseF32)
	// stage holds the member rows of the modular swap kernel; it lives on
	// the State so repeated passes (local search, and the fresh scanner of
	// every BestSwap call) reuse its buffers.
	stage swapStage
	// run is the greedy round driver's scratch when this State roots a
	// solve (rounds.go), kept here for the same reason.
	run *greedyRun
}

// NewState returns an empty working set for the objective.
func (o *Objective) NewState() *State {
	n := o.N()
	st := &State{
		obj:   o,
		f:     o.f.NewEvaluator(),
		fSrc:  o.f,
		cache: o.scratch,
		in:    make([]bool, n),
		du:    make([]float64, n),
	}
	if m, ok := o.f.(*setfunc.Modular); ok {
		st.modular = m
	}
	if r, ok := o.d.(metric.RowAccumulator); ok {
		st.rowAcc = r
	}
	return st
}

// AcquireState returns an empty State drawn from the objective's scratch
// cache (reset, with slice capacity from earlier solves retained), falling
// back to NewState when the cache is dry. With a shared cache
// (NewObjectiveCached) the state may have been built by a sibling objective
// with a different λ or quality function: adoption rebinds it, reusing the
// O(n) slices and — when the quality source is unchanged — the quality
// evaluator, so per-query objectives solve without per-query O(n)
// allocations. Pair with ReleaseState; states that outlive a call — the
// dynamic Session's incremental solution — should use NewState and keep
// ownership.
func (o *Objective) AcquireState() *State {
	for {
		v := o.scratch.pool.Get()
		if v == nil {
			return o.NewState()
		}
		if st := v.(*State); st.adopt(o) {
			return st
		}
		// Wrong ground size (the corpus grew or shrank since this state was
		// cached): drop it and try the next one.
	}
}

// adopt rebinds a cached State to objective o, reporting false when the
// state's slices cannot serve o's ground set. The cache contract guarantees
// o's metric matches the one the state was built on whenever the sizes
// agree.
func (st *State) adopt(o *Objective) bool {
	if len(st.in) != o.N() {
		return false
	}
	st.obj = o
	if !sameSource(st.fSrc, o.f) {
		st.f = o.f.NewEvaluator()
		st.fSrc = o.f
	}
	st.modular, _ = o.f.(*setfunc.Modular)
	st.rowAcc, _ = o.d.(metric.RowAccumulator)
	st.Reset()
	return true
}

// sameSource reports whether two quality sources are the same object. Only
// pointer identity counts: interface equality on non-pointer dynamic types
// could panic (a user source may carry func-typed fields), and a fresh
// evaluator for a value-typed source is the safe default.
func sameSource(a, b setfunc.Source) bool {
	if a == nil || b == nil {
		return false
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Kind() == reflect.Pointer && vb.Kind() == reflect.Pointer &&
		va.Type() == vb.Type() && va.Pointer() == vb.Pointer()
}

// ReleaseState returns a State obtained from AcquireState to its cache. The
// caller must not touch st afterwards. States from an unrelated cache are
// dropped rather than poisoning the pool.
func (o *Objective) ReleaseState(st *State) {
	if st == nil || st.cache != o.scratch {
		return
	}
	o.scratch.pool.Put(st)
}

// Objective returns the objective this state evaluates.
func (s *State) Objective() *Objective { return s.obj }

// Size returns |S|.
func (s *State) Size() int { return len(s.members) }

// Contains reports membership of u.
func (s *State) Contains(u int) bool { return s.in[u] }

// Members returns a copy of S in insertion order.
func (s *State) Members() []int {
	out := make([]int, len(s.members))
	copy(out, s.members)
	return out
}

// FValue returns f(S).
func (s *State) FValue() float64 { return s.f.Value() }

// Dispersion returns d(S).
func (s *State) Dispersion() float64 { return s.sumD }

// potScore and objScore are the two score expressions of the paper's
// selection rules: the greedy potential φ′ = ½·f_u(S) + λ·d_u(S) and the
// objective marginal φ = f_u(S) + λ·d_u(S) (objScore also evaluates the
// objective itself, with f(S) and d(S) in place of the marginals). Every
// scan — the serial State methods, the cached parallel scorers, and the
// multi-λ shared fold — goes through these helpers so the compiler emits
// one float expression for each rule and bit-identical scores cannot drift
// apart between code paths.
func potScore(fMarginal, lambda, du float64) float64 { return 0.5*fMarginal + lambda*du }
func objScore(fMarginal, lambda, du float64) float64 { return fMarginal + lambda*du }

// Value returns φ(S).
func (s *State) Value() float64 { return objScore(s.f.Value(), s.obj.lambda, s.sumD) }

// DistToSet returns d_u(S) = Σ_{v∈S} d(u,v); valid for members and
// non-members alike.
func (s *State) DistToSet(u int) float64 { return s.du[u] }

// MarginalF returns f_u(S) = f(S+u) − f(S) for u ∉ S.
func (s *State) MarginalF(u int) float64 { return s.f.Marginal(u) }

// MarginalObjective returns φ_u(S) = f_u(S) + λ·d_u(S) for u ∉ S.
func (s *State) MarginalObjective(u int) float64 {
	return objScore(s.f.Marginal(u), s.obj.lambda, s.du[u])
}

// MarginalPotential returns the paper's greedy potential
// φ′_u(S) = ½·f_u(S) + λ·d_u(S) for u ∉ S.
func (s *State) MarginalPotential(u int) float64 {
	return potScore(s.f.Marginal(u), s.obj.lambda, s.du[u])
}

// Add inserts u ∉ S.
func (s *State) Add(u int) {
	if s.in[u] {
		panic(fmt.Sprintf("core: State.Add(%d): already a member", u))
	}
	s.f.Add(u)
	s.in[u] = true
	s.members = append(s.members, u)
	s.sumD += s.du[u]
	if s.rowAcc != nil {
		s.rowAcc.AccumulateRow(u, 1, s.du)
		return
	}
	d := s.obj.d
	for v := range s.du {
		s.du[v] += d.Distance(u, v)
	}
}

// Remove deletes u ∈ S.
func (s *State) Remove(u int) {
	if !s.in[u] {
		panic(fmt.Sprintf("core: State.Remove(%d): not a member", u))
	}
	s.f.Remove(u)
	s.in[u] = false
	for i, v := range s.members {
		if v == u {
			s.members[i] = s.members[len(s.members)-1]
			s.members = s.members[:len(s.members)-1]
			break
		}
	}
	if s.rowAcc != nil {
		s.rowAcc.AccumulateRow(u, -1, s.du)
	} else {
		d := s.obj.d
		for v := range s.du {
			s.du[v] -= d.Distance(u, v)
		}
	}
	s.sumD -= s.du[u]
	if len(s.members) <= 1 {
		s.sumD = 0 // pin away floating-point residue
	}
}

// SwapGain returns φ(S − out + in) − φ(S) without changing S; out must be a
// member and in a non-member. This is the marginal gain φ_{in→out}(S) of the
// Section 6 oblivious update rule. The distance part is O(1) thanks to the
// d_u(S) cache; the quality part is O(1) for modular f and otherwise costs a
// remove/add round-trip on the quality evaluator.
func (s *State) SwapGain(out, in int) float64 {
	if !s.in[out] || s.in[in] {
		panic(fmt.Sprintf("core: SwapGain(%d,%d): out must be a member, in a non-member", out, in))
	}
	return s.swapGainWith(s.f, out, in)
}

// swapGainWith is SwapGain evaluated against a caller-owned quality
// evaluator (loaded with S), so concurrent scan workers can each use a
// private clone; the modular fast path never touches the evaluator.
func (s *State) swapGainWith(ev setfunc.Evaluator, out, in int) float64 {
	var fGain float64
	if s.modular != nil {
		fGain = s.modular.Weight(in) - s.modular.Weight(out)
	} else {
		ev.Remove(out)
		fGain = ev.Marginal(in) - ev.Marginal(out)
		ev.Add(out)
	}
	return swapScore(fGain, s.obj.lambda, s.du[in], s.obj.d.Distance(in, out), s.du[out])
}

// Swap applies S ← S − out + in.
func (s *State) Swap(out, in int) {
	s.Remove(out)
	s.Add(in)
}

// Reset empties the working set.
func (s *State) Reset() {
	s.f.Reset()
	s.members = s.members[:0]
	s.sumD = 0
	for i := range s.in {
		s.in[i] = false
	}
	for i := range s.du {
		s.du[i] = 0
	}
}

// loadFrom makes s a copy of src, a State of the same ground set: the
// membership, d_u(S) and d(S) are copied, and the quality evaluator replays
// src's members in order, so both accumulate f(S) the same way.
func (s *State) loadFrom(src *State) {
	copy(s.in, src.in)
	copy(s.du, src.du)
	s.members = append(s.members[:0], src.members...)
	s.sumD = src.sumD
	s.ReloadQuality()
}

// ReloadQuality recomputes f(S) after the quality function changed under a
// fixed S (a dynamic weight update): the evaluator replays the members in
// order, the sequence SetTo feeds it, so f(S) carries SetTo's bits. The
// distance bookkeeping is not touched; it equals SetTo's as long as the
// state has taken no Remove since its last SetTo or Reset.
func (s *State) ReloadQuality() {
	s.f.Reset()
	for _, u := range s.members {
		s.f.Add(u)
	}
}

// SetTo resets the state and loads the given subset.
func (s *State) SetTo(S []int) {
	s.Reset()
	for _, u := range S {
		s.Add(u)
	}
}
