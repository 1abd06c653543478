package dynamic

import (
	"fmt"
	"math"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/setfunc"
)

// This file extends Session from the paper's fixed-ground-set Section 6
// model to a fully dynamic one: elements can be inserted and deleted while
// the maintained selection keeps absorbing oblivious updates, the workload
// of the follow-up literature on fully dynamic submodular maximization
// (Dütting et al.; Banihashem et al.) and of any long-running serving
// process.
//
// Mutations are cheap O(n) data edits that mark the derived solver state
// stale; the O(n·p) state rebuild happens lazily on the next read. A batch
// of B inserts between queries therefore costs O(B·n + n·p), not
// O(B·n·p) — the serving layer's per-shard batching leans on this. The
// session's first mutation also copies the caller's distances, once
// (Session.own).

// markStale snapshots the current membership and flags the derived state
// (modular quality, objective, incremental State) for rebuild.
func (s *Session) markStale() {
	if !s.stale {
		s.pending = s.st.Members()
		s.stale = true
	}
}

// ensureFresh rebuilds the derived state after ground-set mutations and
// refills the selection to min(p, n) with the paper's greedy rule.
func (s *Session) ensureFresh() {
	if !s.stale {
		return
	}
	s.rebuild()
	s.fill()
}

// rebuild derives the quality function, objective and incremental State
// from the mutated weights and distances and loads the pending membership.
func (s *Session) rebuild() {
	mod, err := setfunc.NewModular(s.w)
	if err != nil {
		panic(fmt.Sprintf("dynamic: rebuild: %v", err)) // validated at insert
	}
	obj, err := core.NewObjective(mod, s.lambda, s.d)
	if err != nil {
		panic(fmt.Sprintf("dynamic: rebuild: %v", err))
	}
	s.mod, s.obj = mod, obj
	s.st = obj.NewState()
	s.st.SetTo(s.pending)
	s.pending = nil
	s.stale, s.removed, s.stable = false, false, false
}

// fill greedily extends the selection to min(p, n) by the paper's potential
// rule φ′_u(S) = ½f_u(S) + λ·d_u(S) (core.State.Fill), sharding each scan
// across the session's pool.
func (s *Session) fill() {
	_ = s.st.Fill(nil, s.pool, s.p) // a nil context never cancels
}

// N returns the current ground-set size (including pending mutations).
func (s *Session) N() int { return len(s.w) }

// SetTarget changes the target cardinality p. Growing refills greedily;
// shrinking evicts the member whose removal costs the least objective value
// (reverse greedy) until |S| ≤ p.
func (s *Session) SetTarget(p int) error {
	if p < 0 {
		return fmt.Errorf("dynamic: SetTarget(%d): want ≥ 0", p)
	}
	s.ensureFresh()
	s.p = p
	s.stable = false
	for s.st.Size() > p {
		members := s.st.Members()
		worst, worstLoss := -1, math.Inf(1)
		for _, u := range members {
			// Removing u loses its weight plus λ·d_u(S\{u}).
			loss := s.mod.Weight(u) + s.lambda*(s.st.DistToSet(u))
			if loss < worstLoss {
				worst, worstLoss = u, loss
			}
		}
		s.st.Remove(worst)
		s.removed = true
	}
	s.fill()
	return nil
}

// InsertElement appends a new ground element with the given quality weight
// and distances to the existing elements (len == N(), ordered by index),
// returning its index. The maintained selection is untouched until the next
// read, which rebuilds once for any number of batched mutations and grows
// the selection greedily if |S| < p. The Section 6 guarantees carry over:
// an insert changes no existing weight or distance, so φ(S) never decreases
// and subsequent oblivious updates only improve it.
func (s *Session) InsertElement(w float64, dists []float64) (int, error) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("dynamic: InsertElement: weight %g invalid", w)
	}
	if len(dists) != s.N() {
		return 0, fmt.Errorf("dynamic: InsertElement: %d distances for %d existing elements", len(dists), s.N())
	}
	s.markStale()
	idx, err := s.own().AppendRow(dists)
	if err != nil {
		return 0, err
	}
	s.w = append(s.w, w)
	return idx, nil
}

// DeleteElement removes ground element u, moving the last element (index
// N()−1) into slot u. It returns the index that moved (N()−1 before the
// call), or −1 when u was the last element. Callers holding external ids
// must apply the same remap. If u was selected, the next read drops it and
// refills the selection greedily.
func (s *Session) DeleteElement(u int) (moved int, err error) {
	n := s.N()
	if u < 0 || u >= n {
		return 0, fmt.Errorf("dynamic: DeleteElement(%d): out of range [0,%d)", u, n)
	}
	s.markStale()
	last := n - 1
	if err := s.own().RemoveSwap(u); err != nil {
		return 0, err
	}
	s.w[u] = s.w[last]
	s.w = s.w[:last]
	// Remap the pending membership: drop u, relabel last → u.
	out := s.pending[:0]
	for _, m := range s.pending {
		switch m {
		case u:
			// dropped
		case last:
			out = append(out, u)
		default:
			out = append(out, m)
		}
	}
	s.pending = out
	if u == last {
		return -1, nil
	}
	return last, nil
}
