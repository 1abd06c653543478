package dynamic

import (
	"fmt"
	"math"
	"slices"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// Kind classifies a perturbation per Section 6.
type Kind int

const (
	// NoChange is an identity perturbation (new value equals old).
	NoChange Kind = iota
	// WeightIncrease is Type I.
	WeightIncrease
	// WeightDecrease is Type II.
	WeightDecrease
	// DistanceIncrease is Type III.
	DistanceIncrease
	// DistanceDecrease is Type IV.
	DistanceDecrease
)

// String names the perturbation type as in the paper.
func (k Kind) String() string {
	switch k {
	case NoChange:
		return "no-change"
	case WeightIncrease:
		return "type-I (weight increase)"
	case WeightDecrease:
		return "type-II (weight decrease)"
	case DistanceIncrease:
		return "type-III (distance increase)"
	case DistanceDecrease:
		return "type-IV (distance decrease)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Perturbation records one applied change.
type Perturbation struct {
	Kind     Kind
	U, V     int // V = -1 for weight perturbations
	Old, New float64
}

// Delta returns |New − Old|, the paper's δ.
func (p Perturbation) Delta() float64 { return math.Abs(p.New - p.Old) }

// Session maintains a solution to a dynamically changing instance. It
// reads the distances it was given and never writes them: the first
// distance perturbation or ground-set mutation copies them into a private
// Dense, which that mutation and every later one edit. Perturbations go
// through the Session so the incremental solution state stays consistent
// with the data.
type Session struct {
	w      []float64     // item weights: the session's own copy
	d      metric.Metric // the distances the objective reads
	dense  *metric.Dense // d once the session owns it; nil while d is the caller's
	mod    *setfunc.Modular
	lambda float64
	obj    *core.Objective
	st     *core.State
	p      int
	pool   *engine.Pool // nil = serial update scans
	// stale marks the derived state (mod, obj, st) for lazy rebuild after
	// ground-set mutations (InsertElement/DeleteElement); pending holds the
	// intended membership while stale. See fully.go.
	stale   bool
	pending []int
	// removed records that st has taken a Remove (a swap, a SetTarget
	// shrink) since it was last loaded, so its d_u(S) may differ in the last
	// bits from a fresh load's; a weight refresh then reloads in full.
	removed bool
	// stable records that the last swap scan found no pair above
	// swapThreshold, and touched is the one item whose weight has changed
	// since (-1: none). See ObliviousUpdate.
	stable  bool
	touched int
}

// swapThreshold is the smallest swap gain the oblivious update applies:
// gains within 1e-15 of zero are floating-point churn, not improvements.
const swapThreshold = 1e-15

// NewSession starts from the item weights (copied), the distances between
// the items, a trade-off λ, and an initial solution (the paper starts from
// a greedy 2-approximation). The session reads d until its first distance
// or ground-set mutation and never writes it; d must not change while the
// session reads it.
func NewSession(weights []float64, d metric.Metric, lambda float64, initial []int) (*Session, error) {
	w := slices.Clone(weights)
	mod, err := setfunc.NewModular(w)
	if err != nil {
		return nil, err
	}
	obj, err := core.NewObjective(mod, lambda, d)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(initial))
	for _, u := range initial {
		if u < 0 || u >= obj.N() {
			return nil, fmt.Errorf("dynamic: initial element %d out of range [0,%d)", u, obj.N())
		}
		if seen[u] {
			return nil, fmt.Errorf("dynamic: duplicate initial element %d", u)
		}
		seen[u] = true
	}
	st := obj.NewState()
	st.SetTo(initial)
	return &Session{w: w, d: d, mod: mod, lambda: lambda, obj: obj, st: st, p: len(initial), touched: -1}, nil
}

// SetParallelism shards the oblivious update's full swap scan across k
// worker goroutines (k ≤ 0 selects GOMAXPROCS, 1 restores the serial scan);
// the restricted rescans stay serial. The scan's selection rule is a total
// order, so the maintained solution is identical for every k.
func (s *Session) SetParallelism(k int) {
	if k == 1 {
		s.pool = nil
		return
	}
	s.pool = engine.New(k)
}

// Objective exposes the session's live objective (it reflects every applied
// perturbation; use it to compute OPT externally).
func (s *Session) Objective() *core.Objective {
	s.ensureFresh()
	return s.obj
}

// P returns the target solution cardinality (the maintained selection can be
// smaller when the ground set has fewer than P elements).
func (s *Session) P() int { return s.p }

// Members returns the current solution.
func (s *Session) Members() []int {
	s.ensureFresh()
	return s.st.Members()
}

// Value returns φ(S) for the current solution under the current data.
func (s *Session) Value() float64 {
	s.ensureFresh()
	return s.st.Value()
}

// SetWeight applies a weight perturbation (Type I/II) and returns its record.
// It re-sums f(S) over the p members, unless the selection has swapped or
// shrunk since the state was last loaded; then it reloads the whole state,
// O(n·p), to keep a fresh load's bits.
func (s *Session) SetWeight(u int, w float64) (Perturbation, error) {
	s.ensureFresh()
	if u < 0 || u >= s.obj.N() {
		return Perturbation{}, fmt.Errorf("dynamic: SetWeight: element %d out of range", u)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return Perturbation{}, fmt.Errorf("dynamic: SetWeight: weight %g invalid", w)
	}
	old := s.mod.Weight(u)
	s.mod.SetWeight(u, w)
	s.w[u] = w
	if s.removed {
		s.refresh()
	} else {
		// d_u(S) holds a fresh load's bits already; only f(S) moved.
		s.st.ReloadQuality()
		if s.touched == -1 {
			s.touched = u
		} else if s.touched != u {
			s.stable = false // two items changed: rescan every pair
		}
	}
	kind := NoChange
	switch {
	case w > old:
		kind = WeightIncrease
	case w < old:
		kind = WeightDecrease
	}
	return Perturbation{Kind: kind, U: u, V: -1, Old: old, New: w}, nil
}

// SetDistance applies a distance perturbation (Type III/IV). The paper
// assumes perturbations preserve the metric property; callers own that
// invariant (the [1,2] synthetic regime preserves it automatically).
func (s *Session) SetDistance(u, v int, d float64) (Perturbation, error) {
	s.ensureFresh()
	n := s.obj.N()
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return Perturbation{}, fmt.Errorf("dynamic: SetDistance: bad pair (%d,%d)", u, v)
	}
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return Perturbation{}, fmt.Errorf("dynamic: SetDistance: distance %g invalid", d)
	}
	old := s.d.Distance(u, v)
	s.own().SetDistance(u, v, d)
	if s.stale {
		s.ensureFresh() // the first write: rebuild over the private copy
	} else {
		s.refresh()
	}
	kind := NoChange
	switch {
	case d > old:
		kind = DistanceIncrease
	case d < old:
		kind = DistanceDecrease
	}
	return Perturbation{Kind: kind, U: u, V: v, Old: old, New: d}, nil
}

// own returns the session's private distances, copying the caller's on
// first use (Clone for a Dense, Materialize otherwise) and marking the
// derived state for rebuild over the copy.
func (s *Session) own() *metric.Dense {
	if s.dense == nil {
		if d, ok := s.d.(*metric.Dense); ok {
			s.dense = d.Clone()
		} else {
			s.dense = metric.Materialize(s.d)
		}
		s.d = s.dense
		s.markStale()
	}
	return s.dense
}

// refresh reloads the incremental state after the underlying data moved
// (O(n·p); the solution set itself is unchanged).
func (s *Session) refresh() {
	s.st.SetTo(s.st.Members())
	s.removed, s.stable = false, false
}

// ObliviousUpdate applies one step of the Section 6 rule: find the pair
// (u ∈ S, v ∉ S) maximizing φ_{v→u}(S); if the best gain is positive, swap.
// Returns whether a swap happened and the realized gain.
//
// The O(n·p) swap scan shards across the session's pool (SetParallelism);
// gains within 1e-15 of zero are treated as floating-point churn, not
// improvements, matching the paper's "positive gain" precondition. After a
// scan that finds no swap, the session is stable: while only one item u
// changes weight, only the pairs with u on one side can change gain, so the
// next update scans just those (O(n) for a member u, O(p) otherwise), and
// none when nothing changed. It returns the pair the full scan would.
func (s *Session) ObliviousUpdate() (swapped bool, gain float64) {
	s.ensureFresh()
	var out, in int
	var ok bool
	switch {
	case !s.stable:
		out, in, gain, ok = s.st.BestSwap(s.pool, swapThreshold, nil)
	case s.touched != -1:
		out, in, gain, ok = s.st.BestSwapTouching(s.touched, swapThreshold)
	}
	if !ok {
		s.stable, s.touched = true, -1
		return false, 0
	}
	s.st.Swap(out, in)
	s.removed, s.stable = true, false
	return true, gain
}

// UpdatesFor returns the number of oblivious updates the paper's theorems
// prescribe to restore a 3-approximation after the given perturbation:
// 1 for Types I, III, IV and for p ≤ 3 (Corollary 3); the Theorem 4 count
// for Type II. prevValue must be φ(S) before a Type II perturbation.
func (s *Session) UpdatesFor(pert Perturbation, prevValue float64) (int, error) {
	switch pert.Kind {
	case NoChange:
		return 0, nil
	case WeightIncrease, DistanceIncrease, DistanceDecrease:
		return 1, nil
	case WeightDecrease:
		return Theorem4Updates(prevValue, pert.Delta(), s.p)
	default:
		return 0, fmt.Errorf("dynamic: unknown perturbation kind %v", pert.Kind)
	}
}

// Maintain applies the prescribed number of oblivious updates for the
// perturbation (stopping early if no swap improves) and returns how many
// swaps were actually applied.
func (s *Session) Maintain(pert Perturbation, prevValue float64) (int, error) {
	k, err := s.UpdatesFor(pert, prevValue)
	if err != nil {
		return 0, err
	}
	applied := 0
	for i := 0; i < k; i++ {
		swapped, _ := s.ObliviousUpdate()
		if !swapped {
			break
		}
		applied++
	}
	return applied, nil
}

// Theorem4Updates computes ⌈log_{(p−2)/(p−3)} (w / (w−δ))⌉, the Theorem 4
// bound on updates needed after a weight decrease of magnitude δ from a
// solution of value w. Special cases per the paper: p ≤ 3 needs one update
// (Corollary 3), δ ≤ w/(p−2) needs one update, and δ ≥ w is out of the
// theorem's regime (the perturbation wiped the solution's entire value) —
// an error is returned so callers can fall back to recomputation.
func Theorem4Updates(w, delta float64, p int) (int, error) {
	if delta < 0 || w < 0 || math.IsNaN(delta) || math.IsNaN(w) {
		return 0, fmt.Errorf("dynamic: Theorem4Updates: invalid w=%g δ=%g", w, delta)
	}
	if delta == 0 {
		return 0, nil
	}
	if p <= 3 {
		return 1, nil
	}
	if delta <= w/float64(p-2) {
		return 1, nil
	}
	if delta >= w {
		return 0, fmt.Errorf("dynamic: Theorem4Updates: δ=%g ≥ w=%g outside Theorem 4's regime", delta, w)
	}
	base := float64(p-2) / float64(p-3)
	k := math.Ceil(math.Log(w/(w-delta)) / math.Log(base))
	if k < 1 {
		k = 1
	}
	return int(k), nil
}
