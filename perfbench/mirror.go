package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/scenario"
)

// mirror is the benchmark's own copy of the corpus: every acknowledged write
// is applied to it, so once the load stops it holds exactly the state the
// system under test should answer over. Writes to one id never overlap (the
// scenario engine orders them), so applying acks in arrival order is exact.
type mirror struct {
	mu    sync.Mutex
	items map[string]scenario.Item
}

func newMirror() *mirror { return &mirror{items: make(map[string]scenario.Item)} }

func (m *mirror) put(items []scenario.Item) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, it := range items {
		m.items[it.ID] = it
	}
}

func (m *mirror) remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.items, id)
}

// sorted returns the live items ordered by id.
func (m *mirror) sorted() []scenario.Item {
	m.mu.Lock()
	out := make([]scenario.Item, 0, len(m.items))
	for _, it := range m.items {
		out = append(out, it)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// withPrefix returns the live ids starting with prefix, sorted.
func (m *mirror) withPrefix(prefix string) []string {
	m.mu.Lock()
	var out []string
	for id := range m.items {
		if strings.HasPrefix(id, prefix) {
			out = append(out, id)
		}
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// mirrorTarget forwards ops to the system under test, counts attempts and
// failures, and applies each acknowledged write to the mirror.
type mirrorTarget struct {
	inner     scenario.Target
	m         *mirror
	attempted atomic.Int64
	failed    atomic.Int64
}

func (t *mirrorTarget) note(err error) error {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
	}
	return err
}

func (t *mirrorTarget) Insert(ctx context.Context, items []scenario.Item) error {
	if err := t.note(t.inner.Insert(ctx, items)); err != nil {
		return err
	}
	t.m.put(items)
	return nil
}

func (t *mirrorTarget) Delete(ctx context.Context, id string) error {
	if err := t.note(t.inner.Delete(ctx, id)); err != nil {
		return err
	}
	t.m.remove(id)
	return nil
}

func (t *mirrorTarget) Query(ctx context.Context, q scenario.QueryParams) (scenario.QueryResult, error) {
	res, err := t.inner.Query(ctx, q)
	return res, t.note(err)
}

// corpusItems draws the seeded starting corpus: ids "c-<i>", weights and
// coordinates uniform in [0, 1) — the distribution the scenario engine draws
// streamed items from.
func corpusItems(seed int64, n, dim int) []scenario.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]scenario.Item, n)
	for i := range items {
		vec := make([]float64, dim)
		for k := range vec {
			vec[k] = rng.Float64()
		}
		items[i] = scenario.Item{ID: "c-" + strconv.Itoa(i), Weight: rng.Float64(), Vector: vec}
	}
	return items
}

// load inserts items through the target in batches, as a client would.
func load(ctx context.Context, t scenario.Target, items []scenario.Item) error {
	const batch = 128
	for lo := 0; lo < len(items); lo += batch {
		if err := t.Insert(ctx, items[lo:min(lo+batch, len(items))]); err != nil {
			return fmt.Errorf("load corpus: %w", err)
		}
	}
	return nil
}

// sameIDs checks a returned selection against the reference selection, id
// for id (order-free: servers report members in corpus order).
func sameIDs(got, want []string) error {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		return fmt.Errorf("%d items, reference has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("selection %v, reference %v", g, w)
		}
	}
	return nil
}

// objective evaluates φ(S) = Σ w + λ·Σ_{pairs} d over the mirror in float64
// cosine distance, so answers solved on different backends are scored on one
// scale. An id that is not live, or repeated, is a wrong answer.
func objective(items map[string]scenario.Item, ids []string, lambda float64) (float64, error) {
	seen := make(map[string]bool, len(ids))
	vecs := make([][]float64, len(ids))
	var v float64
	for i, id := range ids {
		it, ok := items[id]
		if !ok {
			return 0, fmt.Errorf("selected id %q is not live", id)
		}
		if seen[id] {
			return 0, fmt.Errorf("selected id %q twice", id)
		}
		seen[id] = true
		v += it.Weight
		vecs[i] = it.Vector
	}
	for i := 1; i < len(vecs); i++ {
		for j := 0; j < i; j++ {
			v += lambda * metric.CosineDist(vecs[i], vecs[j])
		}
	}
	return v, nil
}

func byID(items []scenario.Item) map[string]scenario.Item {
	out := make(map[string]scenario.Item, len(items))
	for _, it := range items {
		out[it.ID] = it
	}
	return out
}
