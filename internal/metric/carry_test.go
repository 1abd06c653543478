package metric

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestVecSnapshotCarriedRowsExact churns a vector store through appends,
// removals, zero vectors and emptying, publishing snapshots in between, and
// reads rows through both read paths of the newest and of older live
// snapshots in random order. Every row, carried or computed, must hold
// bit for bit the Distance of its snapshot.
func TestVecSnapshotCarriedRowsExact(t *testing.T) {
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, err := NewVecStore(kind)
			if err != nil {
				t.Fatal(err)
			}
			var snaps []*vecSnap
			for step := 0; step < 300; step++ {
				switch r := rng.Intn(100); {
				case r < 35 || s.n == 0:
					v := randVec(rng, vecTestDim)
					if rng.Intn(20) == 0 {
						v = make([]float64, vecTestDim)
					}
					if _, err := s.AppendVector(v); err != nil {
						t.Fatal(err)
					}
				case r < 60:
					if err := s.RemoveSwap(rng.Intn(s.n)); err != nil {
						t.Fatal(err)
					}
				case r < 62:
					for s.n > 0 {
						if err := s.RemoveSwap(rng.Intn(s.n)); err != nil {
							t.Fatal(err)
						}
					}
				case r < 80:
					snaps = append(snaps, s.Snapshot().(*vecSnap))
					if len(snaps) > 12 {
						snaps = snaps[1:]
					}
				default:
					if len(snaps) == 0 {
						continue
					}
					snap := snaps[len(snaps)-1]
					if rng.Intn(4) == 0 {
						snap = snaps[rng.Intn(len(snaps))]
					}
					if snap.n == 0 {
						continue
					}
					checkSnapRows(t, snap, rng, kind, seed, step)
				}
			}
		}
	}
}

// checkSnapRows reads one row through AccumulateRow and two through Rows
// and compares each entry with the snapshot's Distance.
func checkSnapRows(t *testing.T, snap *vecSnap, rng *rand.Rand, kind string, seed int64, step int) {
	t.Helper()
	// A few hot points, so rows recur across snapshots and get carried.
	u := rng.Intn(min(snap.n, 6))
	acc := make([]float64, snap.n)
	snap.AccumulateRow(u, 1, acc)
	us := []int{rng.Intn(min(snap.n, 6)), u}
	rows := snap.Rows(us, nil)
	for v := 0; v < snap.n; v++ {
		want := snap.Distance(u, v)
		if math.Float64bits(acc[v]) != math.Float64bits(want) {
			t.Fatalf("%s seed %d step %d: AccumulateRow(%d)[%d] = %v, Distance = %v", kind, seed, step, u, v, acc[v], want)
		}
		for r, x := range us {
			if got, want := float64(rows[r][v]), snap.Distance(x, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s seed %d step %d: Rows[%d][%d] = %v, Distance = %v", kind, seed, step, x, v, got, want)
			}
		}
	}
}

// TestVecSnapshotCarriesRows pins the point of the lineage: a row cached
// under one snapshot is carried to later ones across appends and removals
// without a recomputation, a snapshot of an unchanged store shares its
// predecessor's rows, and a row falls out of reach once more than
// vecCarryDepth snapshots separate it from the reader.
func TestVecSnapshotCarriesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := NewVecStore(KindVecF32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]float64, 64)
	fold := func(snap Snapshot, u int) (hits, misses int64) {
		h0, m0 := s.RowCacheCounters()
		snap.AccumulateRow(u, 1, dst[:snap.Len()])
		h1, m1 := s.RowCacheCounters()
		return h1 - h0, m1 - m0
	}
	if _, m := fold(s.Snapshot(), 5); m != 1 {
		t.Fatalf("first fold: %d misses, want 1", m)
	}
	// Point 5 survives; the last point moves into slot 2 and two points
	// are added.
	if err := s.RemoveSwap(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
			t.Fatal(err)
		}
	}
	next := s.Snapshot()
	if h, m := fold(next, 5); h != 1 || m != 0 {
		t.Fatalf("fold after mutation: %d hits, %d misses, want a carried row", h, m)
	}
	if again := s.Snapshot(); again.(*vecSnap).cache != next.(*vecSnap).cache {
		t.Fatal("snapshot of an unchanged store got a new row cache")
	}
	// The removed point's slot now holds what was the last point: its row
	// is carried too.
	if h, m := fold(s.Snapshot(), 2); h != 0 || m != 1 {
		t.Fatalf("fold of a never-computed row: %d hits, %d misses, want a miss", h, m)
	}
	for i := 0; i < vecCarryDepth; i++ {
		if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
			t.Fatal(err)
		}
		s.Snapshot()
	}
	if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
		t.Fatal(err)
	}
	if h, m := fold(s.Snapshot(), 5); h != 0 || m != 1 {
		t.Fatalf("fold %d snapshots on: %d hits, %d misses, want a miss", vecCarryDepth+2, h, m)
	}
}

// TestVecSnapshotCarryConcurrent reads rows of the newest snapshots from
// several goroutines while one writer mutates the store and publishes, so
// rows are carried and taken across caches concurrently (run it under
// -race). Every row must still match its snapshot's Distance.
func TestVecSnapshotCarryConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := NewVecStore(KindVecF32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
			t.Fatal(err)
		}
	}
	var latest atomic.Pointer[vecSnap]
	latest.Store(s.Snapshot().(*vecSnap))
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			acc := make([]float64, 128)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := latest.Load()
				u := (i + r) % min(snap.n, 5)
				dst := acc[:snap.n]
				clear(dst)
				snap.AccumulateRow(u, 1, dst)
				for v := range dst {
					if dst[v] != snap.Distance(u, v) {
						errs <- "carried row differs from Distance"
						return
					}
				}
			}
		}(r)
	}
	for step := 0; step < 400; step++ {
		if rng.Intn(2) == 0 && s.n > 40 {
			if err := s.RemoveSwap(rng.Intn(s.n)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
			t.Fatal(err)
		}
		latest.Store(s.Snapshot().(*vecSnap))
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
