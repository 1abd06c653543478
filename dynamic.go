package maxsumdiv

import (
	"fmt"

	"maxsumdiv/internal/dynamic"
)

// Dynamic maintains a diversified selection while item weights and pairwise
// distances change over time, implementing Section 6 of the paper: after
// each perturbation, the oblivious single-swap update rule restores a
// 3-approximation with one update (weight/distance increases, distance
// decreases) or the Theorem 4 number of updates (weight decreases).
//
// Dynamic requires the default modular quality. It copies the item weights
// and reads the index's distances in place, so starting one costs O(n + n·p)
// whatever the backend. The first UpdateDistance, Insert or Delete copies
// the distances into a private dense matrix (O(n²) time and memory, once);
// the index itself never changes. A weight update costs O(p) (O(n·p) for
// the first one after a swap), and its maintenance rescans only the swaps
// it touched: O(n) when the item is selected, O(p) when it is not. Any
// other perturbation, and any swap, makes the next update scan all O(n·p)
// pairs.
type Dynamic struct {
	sess *dynamic.Session
	// ids tracks item identifiers by session index; Insert appends and
	// Delete applies the session's swap-with-last remap.
	ids []string
	// prevValue tracks φ(S) before the latest perturbation, the Theorem 4
	// reference value.
	prevValue float64
}

// Perturbation mirrors the paper's four perturbation types; returned by
// UpdateWeight and UpdateDistance and consumed by Maintain.
type Perturbation = dynamic.Perturbation

// NewDynamic starts a dynamic session over the index's items with the given
// initial selection (typically a greedy query's Indices, a
// 2-approximation). The session copies the weights and reads the index's
// distances, building no distance backend; it copies them on its first
// distance or ground-set mutation. The index itself stays immutable, and
// queries may run on it concurrently with the session.
func (ix *Index) NewDynamic(initial []int) (*Dynamic, error) {
	if ix.modular == nil {
		return nil, fmt.Errorf("%w: Dynamic needs item weights", ErrNeedsModularQuality)
	}
	sess, err := dynamic.NewSession(ix.modular.Weights(), ix.dist, ix.lambda, initial)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(ix.items))
	for i, it := range ix.items {
		ids[i] = it.ID
	}
	return &Dynamic{sess: sess, ids: ids, prevValue: sess.Value()}, nil
}

// SetParallelism shards the oblivious update's full O(n·p) swap scan
// across k worker goroutines (k ≤ 0 selects GOMAXPROCS, 1 restores the
// serial scan). The rescans after a weight update, O(n) at most, stay
// serial. The maintained solution is identical at every setting.
func (d *Dynamic) SetParallelism(k int) { d.sess.SetParallelism(k) }

// Selection returns the current item indices.
func (d *Dynamic) Selection() []int { return d.sess.Members() }

// IDs returns the current item identifiers.
func (d *Dynamic) IDs() []string {
	members := d.sess.Members()
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = d.ids[m]
	}
	return ids
}

// Len returns the current ground-set size (it changes under Insert/Delete).
func (d *Dynamic) Len() int { return d.sess.N() }

// SetTarget changes the maintained selection's target cardinality: growing
// refills greedily, shrinking evicts the cheapest members.
func (d *Dynamic) SetTarget(p int) error { return d.sess.SetTarget(p) }

// Insert adds a new item to the live ground set: an identifier, a quality
// weight, and its distances to the existing items in index order (len ==
// Len()). It returns the new item's index. The maintained selection grows
// greedily while it is below the target cardinality; since an insert
// perturbs no existing weight or distance, φ(S) never decreases. Mutations
// are O(n) and batch: the O(n·p) solver-state rebuild is deferred to the
// next read, so a burst of inserts costs one rebuild.
func (d *Dynamic) Insert(id string, weight float64, dists []float64) (int, error) {
	idx, err := d.sess.InsertElement(weight, dists)
	if err != nil {
		return 0, err
	}
	d.ids = append(d.ids, id)
	return idx, nil
}

// Delete removes item u from the live ground set. The last item (index
// Len()−1) moves into slot u — Delete tracks identifiers through the remap,
// but callers holding raw indices must remap them the same way. A deleted
// item leaves the maintained selection immediately; the selection refills
// greedily on the next read.
func (d *Dynamic) Delete(u int) error {
	if _, err := d.sess.DeleteElement(u); err != nil {
		return err
	}
	last := len(d.ids) - 1
	d.ids[u] = d.ids[last]
	d.ids = d.ids[:last]
	return nil
}

// Value returns φ(S) under the current (perturbed) data.
func (d *Dynamic) Value() float64 { return d.sess.Value() }

// UpdateWeight changes item u's weight and returns the perturbation record
// to pass to Maintain.
func (d *Dynamic) UpdateWeight(u int, w float64) (Perturbation, error) {
	prev := d.sess.Value()
	pert, err := d.sess.SetWeight(u, w)
	if err == nil {
		d.prevValue = prev
	}
	return pert, err
}

// UpdateDistance changes the distance between items u and v. The Section 6
// guarantees assume the perturbed distances remain a metric; the caller owns
// that invariant.
func (d *Dynamic) UpdateDistance(u, v int, dist float64) (Perturbation, error) {
	prev := d.sess.Value()
	pert, err := d.sess.SetDistance(u, v, dist)
	if err == nil {
		d.prevValue = prev
	}
	return pert, err
}

// Update applies one step of the oblivious update rule: the best single
// swap, if any improves. Returns whether a swap happened and its gain.
func (d *Dynamic) Update() (swapped bool, gain float64) {
	return d.sess.ObliviousUpdate()
}

// Maintain applies the number of oblivious updates the paper's theorems
// prescribe for the perturbation and returns how many swaps were applied.
// A Type II perturbation outside Theorem 4's regime (δ ≥ φ(S)) returns an
// error; the new weight is already applied, so restore the selection by
// calling Update until it reports no swap.
func (d *Dynamic) Maintain(pert Perturbation) (int, error) {
	return d.sess.Maintain(pert, d.prevValue)
}

// UpdatesNeeded reports the theorem-prescribed update count for a
// perturbation without applying anything.
func (d *Dynamic) UpdatesNeeded(pert Perturbation) (int, error) {
	return d.sess.UpdatesFor(pert, d.prevValue)
}
