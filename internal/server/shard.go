package server

import (
	"fmt"
	"sync"

	"maxsumdiv/internal/dynamic"
	"maxsumdiv/internal/metric"
)

// opKind classifies a pending shard mutation.
type opKind int

const (
	opUpsert opKind = iota
	opDelete
)

// op is one coalesced pending mutation. For opUpsert the weight and vector
// are the item's latest requested state.
type op struct {
	kind   opKind
	id     string
	weight float64
	vector []float64
}

// item is one live element of a shard's ground set, index-aligned with the
// shard session's elements.
type item struct {
	id     string
	weight float64
	vector []float64
}

// shard owns one slice of the item index: the live items, a fully dynamic
// Session maintaining a diversified selection over them, and the pending
// mutation queue. All fields are guarded by mu; handlers hold it only for
// O(1) queue appends, while flush holds it for the batched apply.
//
// A flushed mutation is also written through onApply to the server's
// long-lived corpus, so the query path never reconstructs anything: the
// shard keeps the paper's per-shard dynamic maintenance, the corpus keeps
// the globally queryable backend. Lock order is shard.mu → corpus.mu.
type shard struct {
	mu    sync.Mutex
	ids   map[string]int // live id → index into items
	items []item
	// sess is the fully dynamic maintained-selection session — nil for
	// maintenance-free shards (vector backends), where its O(n_shard²)
	// dense distance matrix would defeat the backend's O(n·d) residency.
	// With sess nil the shard is pure bookkeeping: queue coalescing, live
	// counts, and write-through to the corpus.
	sess *dynamic.Session

	// onApply, when non-nil, receives every successfully applied mutation
	// during a flush (called under mu).
	onApply func(op) error

	pending    []op
	pendingIdx map[string]int // id → index into pending (coalescing)

	// liveDelta tracks the net item-count effect of the pending queue so
	// healthz can report without forcing a flush.
	liveDelta int

	inserts, updates, deletes, flushes, swaps uint64
}

// newShard builds an empty shard maintaining a selection of target size p.
// onApply (optional) write-through hook for flushed mutations. maintain
// false skips the dynamic session entirely (no maintained selection, no
// per-shard distance matrix) — the mode vector backends run in.
func newShard(lambda float64, p, parallelism int, onApply func(op) error, maintain bool) (*shard, error) {
	sh := &shard{
		ids:        make(map[string]int),
		pendingIdx: make(map[string]int),
		onApply:    onApply,
	}
	if !maintain {
		return sh, nil
	}
	sess, err := dynamic.NewSession(nil, metric.NewDense(0), lambda, nil)
	if err != nil {
		return nil, err
	}
	if err := sess.SetTarget(p); err != nil {
		return nil, err
	}
	sess.SetParallelism(parallelism)
	sh.sess = sess
	return sh, nil
}

// enqueue records a mutation, coalescing by item ID: the newest op for an ID
// replaces any queued one, and a delete of an item that only ever existed in
// the queue cancels outright. Returns the pending-queue length so the caller
// can trigger a threshold flush. ok is false for a delete of an unknown ID.
func (sh *shard) enqueue(o op) (queueLen int, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, live := sh.ids[o.id]
	prev, queued := sh.pendingIdx[o.id]
	// exists is the item's existence as the client observes it: the newest
	// queued op overrides the live index.
	exists := live
	if queued {
		exists = sh.pending[prev].kind == opUpsert
	}
	switch o.kind {
	case opDelete:
		if !exists {
			return len(sh.pending), false
		}
		sh.liveDelta--
		// A queued insert of a never-live id turns into a queued delete,
		// which applyDelete no-ops on: the insert is cancelled for free.
	case opUpsert:
		if !exists {
			sh.liveDelta++
		}
	}
	if queued {
		sh.pending[prev] = o
	} else {
		sh.pendingIdx[o.id] = len(sh.pending)
		sh.pending = append(sh.pending, o)
	}
	return len(sh.pending), true
}

// getItem reports an item's status as the client observes it: the newest
// queued op for the id overrides the live state, so an acknowledged upsert
// is visible before its flush and an acknowledged delete hides the item
// immediately. ok is false for unknown (or pending-deleted) ids.
func (sh *shard) getItem(id string) (ItemStatus, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, queued := sh.pendingIdx[id]; queued {
		o := sh.pending[prev]
		if o.kind == opDelete {
			return ItemStatus{}, false
		}
		return ItemStatus{ID: id, Weight: o.weight, HasVector: len(o.vector) > 0, Dim: len(o.vector)}, true
	}
	idx, live := sh.ids[id]
	if !live {
		return ItemStatus{}, false
	}
	it := sh.items[idx]
	return ItemStatus{ID: id, Weight: it.weight, HasVector: len(it.vector) > 0, Dim: len(it.vector)}, true
}

// liveCount reports the item count including pending effects.
func (sh *shard) liveCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.items) + sh.liveDelta
}

// pendingLen reports the queue length.
func (sh *shard) pendingLen() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.pending)
}

// flush applies the pending queue to the live items and the session in one
// batch, then lets the session absorb the churn with oblivious single-swap
// updates until no swap improves (capped). It reports how many swaps ran.
func (sh *shard) flush() (swaps int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.flushLocked()
}

func (sh *shard) flushLocked() (swaps int, err error) {
	if len(sh.pending) == 0 {
		return 0, nil
	}
	for _, o := range sh.pending {
		switch o.kind {
		case opUpsert:
			if err := sh.applyUpsert(o); err != nil {
				return swaps, err
			}
		case opDelete:
			sh.applyDelete(o.id)
		}
		if sh.onApply != nil {
			if err := sh.onApply(o); err != nil {
				return swaps, err
			}
		}
	}
	sh.pending = sh.pending[:0]
	sh.pendingIdx = make(map[string]int)
	sh.liveDelta = 0
	sh.flushes++
	if sh.sess == nil {
		return 0, nil
	}
	// Maintenance: the paper prescribes per-perturbation update counts; a
	// batch of mixed churn converges by iterating the same oblivious rule
	// until no single swap improves, capped defensively.
	budget := 2*sh.sess.P() + 4
	for i := 0; i < budget; i++ {
		swapped, _ := sh.sess.ObliviousUpdate()
		if !swapped {
			break
		}
		swaps++
	}
	sh.swaps += uint64(swaps)
	return swaps, nil
}

// applyUpsert inserts a new item or updates an existing one's weight (and,
// if the vector changed, reinserts it so every pairwise distance refreshes).
func (sh *shard) applyUpsert(o op) error {
	if idx, live := sh.ids[o.id]; live {
		if vectorsEqual(sh.items[idx].vector, o.vector) {
			if sh.items[idx].weight == o.weight {
				return nil
			}
			if sh.sess == nil {
				sh.items[idx].weight = o.weight
				sh.updates++
				return nil
			}
			prev := sh.sess.Value()
			pert, err := sh.sess.SetWeight(idx, o.weight)
			if err != nil {
				return fmt.Errorf("server: update %q: %w", o.id, err)
			}
			sh.items[idx].weight = o.weight
			sh.updates++
			// Theorem-prescribed maintenance for a pure weight perturbation;
			// out-of-regime decreases (δ ≥ w) fall back to the batch
			// convergence loop in flushLocked.
			_, _ = sh.sess.Maintain(pert, prev)
			return nil
		}
		sh.applyDelete(o.id)
		// fall through to insert with the new vector
	}
	idx := len(sh.items)
	if sh.sess != nil {
		dists := make([]float64, len(sh.items))
		for j := range sh.items {
			dists[j] = metric.CosineDist(o.vector, sh.items[j].vector)
		}
		var err error
		idx, err = sh.sess.InsertElement(o.weight, dists)
		if err != nil {
			return fmt.Errorf("server: insert %q: %w", o.id, err)
		}
	}
	sh.items = append(sh.items, item{id: o.id, weight: o.weight, vector: o.vector})
	sh.ids[o.id] = idx
	sh.inserts++
	return nil
}

// applyDelete removes a live item, mirroring the session's swap-with-last
// remap in the shard's own id bookkeeping. Unknown ids are a no-op (the
// enqueue layer already rejected them; a queued insert may have been
// coalesced away).
func (sh *shard) applyDelete(id string) {
	idx, live := sh.ids[id]
	if !live {
		return
	}
	if sh.sess != nil {
		if _, err := sh.sess.DeleteElement(idx); err != nil {
			return // index validated via ids map; unreachable
		}
	}
	last := len(sh.items) - 1
	if idx != last {
		sh.items[idx] = sh.items[last]
		sh.ids[sh.items[idx].id] = idx
	}
	sh.items = sh.items[:last]
	delete(sh.ids, id)
	sh.deletes++
}

// maintainedIDs flushes pending mutations and returns the ids of the
// session's maintained selection — the constant-size candidate pool for
// low-latency queries, resolved against the corpus by the caller.
func (sh *shard) maintainedIDs() ([]string, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sess == nil {
		return nil, fmt.Errorf("server: shard runs maintenance-free (vector backend); maintained scope unavailable")
	}
	if _, err := sh.flushLocked(); err != nil {
		return nil, err
	}
	members := sh.sess.Members()
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = sh.items[m].id
	}
	return out, nil
}

func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
