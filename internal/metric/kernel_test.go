package metric

import (
	"math"
	"math/rand"
	"testing"
)

// kernelDims is the dimension sweep the kernel property tests run: zero,
// everything below one unroll stride, exact multiples of the stride, and
// ragged tails around them (d % dotUnroll ≠ 0) up past two cache lines of
// float32.
func kernelDims() []int {
	dims := []int{0, 1, 2, 3, 5, 7}
	for _, base := range []int{dotUnroll, 2 * dotUnroll, 4 * dotUnroll, 13 * dotUnroll} {
		for off := -1; off <= 1; off++ {
			if d := base + off; d > 0 {
				dims = append(dims, d)
			}
		}
	}
	return append(dims, 130)
}

// TestDotI8KernelsExact pins the int8 dispatch contract: integer
// accumulation is associative, so the unrolled kernel, the scalar
// reference, and whichever of the two this build dispatches must agree
// bitwise on every input — including extreme coordinates whose products
// stress the int32 lanes.
func TestDotI8KernelsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range kernelDims() {
		for trial := 0; trial < 20; trial++ {
			a, b := make([]int8, d), make([]int8, d)
			for k := range a {
				a[k] = int8(rng.Intn(256) - 128)
				b[k] = int8(rng.Intn(256) - 128)
			}
			if trial == 0 { // worst-case magnitudes
				for k := range a {
					a[k], b[k] = -128, -128
				}
			}
			want := dotI8Scalar(a, b)
			if got := dotI8Unrolled(a, b); got != want {
				t.Fatalf("d=%d trial %d: unrolled %v, scalar %v", d, trial, got, want)
			}
			if got := DotI8(a, b); got != want {
				t.Fatalf("d=%d trial %d: dispatched (%s) %v, scalar %v", d, trial, KernelVariant(), got, want)
			}
		}
	}
}

// TestDotF32KernelsClose pins the float32 dispatch contract: summation
// order differs between the scalar chain and the unrolled lanes, so exact
// equality is not promised — but both must stay within the usual
// length-scaled rounding of the float64 reference sum, across ragged tails
// and mixed-sign inputs.
func TestDotF32KernelsClose(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, d := range kernelDims() {
		for trial := 0; trial < 20; trial++ {
			a, b := make([]float32, d), make([]float32, d)
			for k := range a {
				a[k] = float32(rng.NormFloat64())
				b[k] = float32(rng.NormFloat64())
			}
			var ref, absSum float64
			for k := range a {
				p := float64(a[k]) * float64(b[k])
				ref += p
				absSum += math.Abs(p)
			}
			// Each float32 add rounds at 2⁻²⁴ relative; d of them against a
			// worst-case cancellation-free magnitude of absSum.
			tol := (float64(d) + 2) * absSum / (1 << 24)
			for name, kernel := range map[string]func(a, b []float32) float32{
				"scalar":     dotF32Scalar,
				"unrolled":   dotF32Unrolled,
				"dispatched": DotF32,
			} {
				if got := float64(kernel(a, b)); math.Abs(got-ref) > tol {
					t.Fatalf("d=%d trial %d: %s kernel %v, float64 reference %v (tol %v)", d, trial, name, got, ref, tol)
				}
			}
		}
	}
}

// TestDotF32TailOnlyExact pins that below one unroll stride the unrolled
// kernel degenerates to the scalar loop exactly — the lanes are all zero
// and the tail is the same dependent chain, so short vectors are bitwise
// stable across builds.
func TestDotF32TailOnlyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for d := 0; d < dotUnroll; d++ {
		a, b := make([]float32, d), make([]float32, d)
		for k := range a {
			a[k] = float32(rng.NormFloat64())
			b[k] = float32(rng.NormFloat64())
		}
		want := dotF32Scalar(a, b)
		if got := dotF32Unrolled(a, b); got != want {
			t.Fatalf("d=%d: unrolled %v, scalar %v — tail-only inputs must match bitwise", d, got, want)
		}
	}
}

// TestKernelVariantNamed pins that the build names its kernel selection —
// /stats and bench reports depend on a non-empty variant — and that the
// purego build really binds the scalar reference.
func TestKernelVariantNamed(t *testing.T) {
	v := KernelVariant()
	if v == "" {
		t.Fatal("KernelVariant() empty")
	}
	if v == "purego" {
		a := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
		rng := rand.New(rand.NewSource(45))
		b := make([]float32, len(a))
		for k := range b {
			b[k] = float32(rng.NormFloat64())
		}
		if DotF32(a, b) != dotF32Scalar(a, b) {
			t.Fatal("purego build dispatched a non-scalar f32 kernel")
		}
	}
	t.Logf("kernel variant: %s", v)
}

// kernelTestStore builds a VecStore of the given kind with n random vectors
// (dim chosen ragged), vector index 3 all-zero so the zero-norm contract is
// always on the test surface.
func kernelTestStore(t *testing.T, kind string, n, dim int, seed int64) *VecStore {
	t.Helper()
	s, err := NewVecStore(kind)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		vec := make([]float64, dim)
		if i != 3 {
			for k := range vec {
				vec[k] = rng.NormFloat64()
			}
		}
		if _, err := s.AppendVector(vec); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestVecRowsMatchSingleRows pins the batched-row kernel: Rows must return
// exactly what n separate cosineRow fills produce — bit-for-bit, zero-norm
// rows and the zero diagonal included. (TestKernelRowFoldMatchesDistance
// pins both against the on-demand Distance.) Runs on both vector kinds
// so the f32 and int8 batched loops are each pinned to their row kernel.
func TestVecRowsMatchSingleRows(t *testing.T) {
	const n, dim = 67, 13 // both ragged: n % dotUnroll ≠ 0, dim % dotUnroll ≠ 0
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		s := kernelTestStore(t, kind, n, dim, 46)
		us := []int{0, 3, 17, 3, 66, 41} // duplicates and the zero vector included
		rows := s.Rows(us, nil)
		if len(rows) != len(us) {
			t.Fatalf("%s: Rows returned %d rows for %d points", kind, len(rows), len(us))
		}
		single := make([]float32, n)
		for i, u := range us {
			s.cosineRow(u, single)
			for v := 0; v < n; v++ {
				if rows[i][v] != single[v] {
					t.Fatalf("%s: row %d (point %d) col %d: batched %v, cosineRow %v", kind, i, u, v, rows[i][v], single[v])
				}
				if got, want := float64(rows[i][v]), s.Distance(u, v); got != want {
					t.Fatalf("%s: row %d (point %d) col %d: batched %v, Distance %v", kind, i, u, v, got, want)
				}
			}
			if rows[i][u] != 0 {
				t.Fatalf("%s: diagonal d(%d,%d) = %v", kind, u, u, rows[i][u])
			}
		}
		// Zero-norm point: distance 1 to everything else by convention.
		zeroRow := s.Rows([]int{3}, nil)[0]
		for v := 0; v < n; v++ {
			want := float32(1)
			if v == 3 {
				want = 0
			}
			if zeroRow[v] != want {
				t.Fatalf("%s: zero-vector row col %d = %v, want %v", kind, v, zeroRow[v], want)
			}
		}
	}
}

// TestVecRowsSnapshotMatchesStore pins that a snapshot's batched rows agree
// bitwise with the store's — same vectors, same kernels, private caches.
func TestVecRowsSnapshotMatchesStore(t *testing.T) {
	s := kernelTestStore(t, KindVecF32, 40, 9, 47)
	snap := s.Snapshot().(*vecSnap)
	us := []int{5, 3, 39}
	want := s.Rows(us, nil)
	got := snap.Rows(us, nil)
	for i := range us {
		for v := range want[i] {
			if got[i][v] != want[i][v] {
				t.Fatalf("snapshot row %d col %d: %v, store %v", i, v, got[i][v], want[i][v])
			}
		}
	}
}

// TestVecRowsWarmPathAllocs is the allocation fence on the batched-row hot
// path: once every requested row is cached and the caller reuses its scratch
// headers, Rows must allocate nothing — the multi-λ solver calls it every
// round.
func TestVecRowsWarmPathAllocs(t *testing.T) {
	s := kernelTestStore(t, KindVecF32, 50, 8, 48)
	us := []int{1, 7, 13, 19}
	scratch := s.Rows(us, nil) // cold: computes and caches every row
	hits0, misses0 := s.RowCacheCounters()
	if misses0 != int64(len(us)) || hits0 != 0 {
		t.Fatalf("cold Rows counters hits=%d misses=%d, want 0/%d", hits0, misses0, len(us))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = s.Rows(us, scratch)
	}); allocs != 0 {
		t.Fatalf("warm Rows allocated %v times per call, want 0", allocs)
	}
	hits, misses := s.RowCacheCounters()
	if misses != misses0 {
		t.Fatalf("warm Rows recomputed rows: misses %d → %d", misses0, misses)
	}
	if hits == 0 {
		t.Fatal("warm Rows recorded no cache hits")
	}
}

// TestVecRowsMixedHitMiss pins the partial-hit path: points already cached
// are handed out as the exact cached slices, the rest are computed in one
// batched pass, and the output order follows the request order.
func TestVecRowsMixedHitMiss(t *testing.T) {
	s := kernelTestStore(t, KindVecF32, 30, 6, 49)
	warm := s.Rows([]int{4, 9}, nil)
	out := s.Rows([]int{9, 2, 4, 25}, nil)
	if &out[0][0] != &warm[1][0] || &out[2][0] != &warm[0][0] {
		t.Fatal("cached rows not reused by a mixed hit/miss batch")
	}
	single := make([]float32, 30)
	for i, u := range []int{9, 2, 4, 25} {
		s.cosineRow(u, single)
		for v := range single {
			if out[i][v] != single[v] {
				t.Fatalf("mixed batch row %d (point %d) col %d: %v, want %v", i, u, v, out[i][v], single[v])
			}
		}
	}
}

// TestKernelRowFoldMatchesDistance pins the read-path agreement every
// solver relies on: for every RowAccumulator, folding row u into zeros
// yields exactly Distance(u, v) in slot v, bit for bit — stored-distance
// backends (Dense, DenseF32, the Tri views with and without a live
// permutation) and the compute-on-demand vector kinds, both the stores
// and their snapshots. Solvers mix the two reads (d_u(S) is folded, swap
// gains and pair scans read single distances or staged rows), so any
// disagreement is a rounding residue a local search can chase forever.
func TestKernelRowFoldMatchesDistance(t *testing.T) {
	const n, dim = 41, 11
	rng := rand.New(rand.NewSource(47))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		if i == 5 {
			continue // a zero vector: the cosine convention's distance 1
		}
		for k := range pts[i] {
			pts[i][k] = rng.NormFloat64()
		}
	}
	cos, err := NewCosine(pts)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]RowAccumulator{
		"dense":     Materialize(cos),
		"dense-f32": MaterializeF32(cos),
	}
	for _, kind := range []string{KindF64, KindF32} {
		tri, err := NewSnapshotter(kind)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := make([]float64, i)
			for j := range row {
				row[j] = cos.Distance(i, j)
			}
			if _, err := tri.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		backends["tri-"+kind] = tri.Snapshot()
		// Removals leave a live logical→physical permutation (below the
		// compaction floor), which AccumulateRow reads as a gather.
		for _, u := range []int{3, 17, 0} {
			if err := tri.RemoveSwap(u); err != nil {
				t.Fatal(err)
			}
		}
		backends["tri-"+kind+"-permuted"] = tri
		backends["tri-"+kind+"-permuted-snap"] = tri.Snapshot()
	}
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		s, err := NewVecStoreFromVectors(kind, pts)
		if err != nil {
			t.Fatal(err)
		}
		backends[kind] = s
		backends[kind+"-snap"] = s.Snapshot()
	}
	for name, b := range backends {
		m := b.Len()
		dst := make([]float64, m)
		for u := 0; u < m; u++ {
			clear(dst)
			b.AccumulateRow(u, 1, dst)
			for v := 0; v < m; v++ {
				if got, want := dst[v], b.Distance(u, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: AccumulateRow(%d)[%d] = %v, Distance = %v", name, u, v, got, want)
				}
			}
		}
	}
}
