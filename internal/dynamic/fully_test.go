package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"maxsumdiv/internal/dataset"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
)

// emptySession starts a session with no elements and target cardinality p.
func emptySession(t *testing.T, lambda float64, p int) *Session {
	t.Helper()
	inst := &dataset.Instance{Weights: nil, Dist: metric.NewDense(0)}
	s, err := NewSession(inst, lambda, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetTarget(p); err != nil {
		t.Fatal(err)
	}
	return s
}

// synthDists draws [1,2] distances from the new element to n existing ones
// (always metric-compatible with the synthetic regime).
func synthDists(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + rng.Float64()
	}
	return d
}

// TestInsertGrowsToTarget inserts elements one by one into an empty session
// and checks |S| = min(p, n) throughout with a valid, duplicate-free
// membership.
func TestInsertGrowsToTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const p = 4
	s := emptySession(t, 0.5, p)
	for n := 0; n < 12; n++ {
		idx, err := s.InsertElement(rng.Float64(), synthDists(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		if idx != n {
			t.Fatalf("insert %d returned index %d", n, idx)
		}
		members := s.Members()
		want := n + 1
		if want > p {
			want = p
		}
		if len(members) != want {
			t.Fatalf("after %d inserts: |S| = %d, want %d", n+1, len(members), want)
		}
		seen := map[int]bool{}
		for _, m := range members {
			if m < 0 || m >= s.N() || seen[m] {
				t.Fatalf("invalid membership %v at n=%d", members, s.N())
			}
			seen[m] = true
		}
	}
}

// TestInsertMonotoneValue checks the serving invariant: under inserts only
// (no weight/distance perturbations), the maintained φ(S) never decreases,
// including across oblivious updates.
func TestInsertMonotoneValue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := emptySession(t, 0.3, 5)
	prev := 0.0
	for n := 0; n < 40; n++ {
		if _, err := s.InsertElement(rng.Float64(), synthDists(rng, n)); err != nil {
			t.Fatal(err)
		}
		if v := s.Value(); v < prev-1e-9 {
			t.Fatalf("insert %d decreased φ(S): %g → %g", n, prev, v)
		} else {
			prev = v
		}
		for i := 0; i < 3; i++ {
			swapped, gain := s.ObliviousUpdate()
			if !swapped {
				break
			}
			if gain <= 0 {
				t.Fatalf("oblivious update applied non-positive gain %g", gain)
			}
		}
		if v := s.Value(); v < prev-1e-9 {
			t.Fatalf("updates decreased φ(S): %g → %g", prev, v)
		} else {
			prev = v
		}
	}
}

// TestDeleteRemovesFromSelection deletes every element in random order,
// checking the selection never references a deleted element, stays at
// min(p, n), and that the remap contract (moved index) keeps external
// bookkeeping consistent.
func TestDeleteRemovesFromSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const start, p = 15, 4
	s := emptySession(t, 0.4, p)
	labels := []int{} // labels[i] = external identity of index i
	for n := 0; n < start; n++ {
		if _, err := s.InsertElement(rng.Float64(), synthDists(rng, n)); err != nil {
			t.Fatal(err)
		}
		labels = append(labels, n)
	}
	deleted := map[int]bool{}
	for s.N() > 0 {
		u := rng.Intn(s.N())
		deleted[labels[u]] = true
		moved, err := s.DeleteElement(u)
		if err != nil {
			t.Fatal(err)
		}
		last := len(labels) - 1
		if moved != -1 {
			if moved != last {
				t.Fatalf("moved = %d, want %d", moved, last)
			}
			labels[u] = labels[last]
		}
		labels = labels[:last]
		members := s.Members()
		want := s.N()
		if want > p {
			want = p
		}
		if len(members) != want {
			t.Fatalf("|S| = %d with n = %d, want %d", len(members), s.N(), want)
		}
		for _, m := range members {
			if deleted[labels[m]] {
				t.Fatalf("selection contains deleted element %d", labels[m])
			}
		}
	}
	if _, err := s.DeleteElement(0); err == nil {
		t.Fatal("delete from empty session accepted")
	}
}

// TestBatchedMutationsMatchFresh interleaves inserts and deletes without
// reading (one batched rebuild), then checks Value() against a from-scratch
// objective evaluation over the final data.
func TestBatchedMutationsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := emptySession(t, 0.6, 3)
	n := 0
	for i := 0; i < 30; i++ {
		if n > 2 && rng.Float64() < 0.3 {
			if _, err := s.DeleteElement(rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
			n--
		} else {
			if _, err := s.InsertElement(rng.Float64(), synthDists(rng, n)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	members := s.Members()
	got := s.Value()
	want := s.Objective().Value(members)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("batched Value() = %g, recomputed = %g", got, want)
	}
	// Weight perturbations still work after ground-set churn.
	pert, err := s.SetWeight(members[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if pert.Kind != WeightIncrease && pert.Kind != NoChange {
		t.Fatalf("unexpected perturbation kind %v", pert.Kind)
	}
	if _, err := s.Maintain(pert, got); err != nil {
		t.Fatal(err)
	}
}

// TestSetTarget grows and shrinks the maintained cardinality.
func TestSetTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := emptySession(t, 0.5, 2)
	for n := 0; n < 10; n++ {
		if _, err := s.InsertElement(rng.Float64(), synthDists(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Members()); got != 2 {
		t.Fatalf("|S| = %d, want 2", got)
	}
	if err := s.SetTarget(6); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Members()); got != 6 {
		t.Fatalf("|S| = %d after growing target, want 6", got)
	}
	before := s.Value()
	if err := s.SetTarget(3); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Members()); got != 3 {
		t.Fatalf("|S| = %d after shrinking target, want 3", got)
	}
	if s.Value() >= before {
		t.Fatalf("shrinking target should lose value: %g → %g", before, s.Value())
	}
	if err := s.SetTarget(-1); err == nil {
		t.Fatal("negative target accepted")
	}
}

// TestInsertValidation rejects malformed inserts.
func TestInsertValidation(t *testing.T) {
	s := emptySession(t, 0.5, 2)
	if _, err := s.InsertElement(-1, nil); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := s.InsertElement(1, []float64{1}); err == nil {
		t.Fatal("wrong-length distance row accepted")
	}
	if _, err := s.InsertElement(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertElement(1, []float64{-2}); err == nil {
		t.Fatal("negative distance accepted")
	}
}

// refFill is the session refill as it ran before it shared the core round
// driver: one engine scorer closure per round, scoring every non-member by
// State.MarginalPotential, ties to the lowest index.
func refFill(s *Session) {
	target := s.p
	if n := s.obj.N(); target > n {
		target = n
	}
	for s.st.Size() < target {
		b := s.pool.ArgMax(s.obj.N(), func(int) engine.Scorer {
			return func(u int) (float64, bool) {
				if s.st.Contains(u) {
					return 0, false
				}
				return s.st.MarginalPotential(u), true
			}
		})
		if b.Index == -1 {
			return
		}
		s.st.Add(b.Index)
	}
}

// refFresh is ensureFresh with the reference refill.
func refFresh(s *Session) {
	if s.stale {
		s.rebuild()
		refFill(s)
	}
}

// TestSessionFillMatchesReference pins the maintained selection's refill
// (State.Fill) to the reference refill bit for bit — membership in
// insertion order and Value() — after insert and delete bursts and target
// growth, with weights and distances drawn from a few values so potentials
// tie, serially and on a 4-worker pool.
func TestSessionFillMatchesReference(t *testing.T) {
	weights := []float64{0, 0.25, 0.5, 1}
	dists := []float64{1, 1.5, 2}
	for _, workers := range []int{1, 4} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			lambda := []float64{0, 0.3, 1}[seed%3]
			p := 2 + int(seed%3)
			got, ref := emptySession(t, lambda, p), emptySession(t, lambda, p)
			got.SetParallelism(workers)
			ref.SetParallelism(workers)
			n := 0
			compare := func(step string) {
				t.Helper()
				refFresh(ref)
				gm, rm := got.Members(), ref.st.Members()
				if !slices.Equal(gm, rm) {
					t.Fatalf("workers=%d seed=%d %s: members %v, reference %v", workers, seed, step, gm, rm)
				}
				if gv, rv := got.Value(), ref.st.Value(); math.Float64bits(gv) != math.Float64bits(rv) {
					t.Fatalf("workers=%d seed=%d %s: Value %v, reference %v", workers, seed, step, gv, rv)
				}
			}
			for burst := 0; burst < 25; burst++ {
				for op := rng.Intn(6); op >= 0; op-- {
					if n > 3 && rng.Float64() < 0.35 {
						u := rng.Intn(n)
						for _, s := range []*Session{got, ref} {
							if _, err := s.DeleteElement(u); err != nil {
								t.Fatal(err)
							}
						}
						n--
						continue
					}
					w := weights[rng.Intn(len(weights))]
					row := make([]float64, n)
					for i := range row {
						row[i] = dists[rng.Intn(len(dists))]
					}
					for _, s := range []*Session{got, ref} {
						if _, err := s.InsertElement(w, slices.Clone(row)); err != nil {
							t.Fatal(err)
						}
					}
					n++
				}
				compare(fmt.Sprintf("burst %d", burst))
				if burst%8 == 7 {
					p += 2
					if err := got.SetTarget(p); err != nil {
						t.Fatal(err)
					}
					refFresh(ref)
					ref.p = p
					refFill(ref)
					compare(fmt.Sprintf("SetTarget(%d)", p))
				}
			}
		}
	}
}
