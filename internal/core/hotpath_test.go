package core

import (
	"math"
	"math/rand"
	"testing"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// pointObjectives builds a modular objective over random Euclidean points
// twice: once on the float64 Dense backend, once on the blocked DenseF32
// backend. Both see the exact same weights and underlying geometry.
func pointObjectives(t testing.TB, n, dim int, seed int64) (f64, f32 *Objective) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	weights := make([]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for k := range pts[i] {
			pts[i][k] = rng.Float64()
		}
		weights[i] = rng.Float64()
	}
	raw, err := metric.NewPoints(pts, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(d metric.Metric) *Objective {
		mod, err := setfunc.NewModular(weights)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := NewObjective(mod, 0.2, d)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	return mk(metric.Materialize(raw)), mk(metric.MaterializeF32(raw))
}

// assertClose fails unless a and b agree to within rel relative tolerance.
func assertClose(t *testing.T, what string, a, b, rel float64) {
	t.Helper()
	den := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	if math.Abs(a-b)/den > rel {
		t.Fatalf("%s: %g vs %g (rel %.2g > %.2g)", what, a, b, math.Abs(a-b)/den, rel)
	}
}

// TestGreedyBFloat32MatchesFloat64 checks that the float32 backend solves to
// the same objective value as the float64 path within float32 rounding: the
// selected sets are evaluated under the float64 objective so a swap of
// near-tied candidates cannot hide a real quality loss.
func TestGreedyBFloat32MatchesFloat64(t *testing.T) {
	for _, n := range []int{60, 500} {
		f64, f32 := pointObjectives(t, n, 16, int64(n))
		k := n / 10
		s64, err := GreedyB(f64, k)
		if err != nil {
			t.Fatal(err)
		}
		s32, err := GreedyB(f32, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(s32.Members) != k {
			t.Fatalf("n=%d: float32 greedy picked %d members, want %d", n, len(s32.Members), k)
		}
		// Compare both solutions under the float64 objective.
		assertClose(t, "greedy value", f64.Value(s64.Members), f64.Value(s32.Members), 1e-4)
		// And the reported value against its own recomputation.
		assertClose(t, "reported value", s32.Value, f32.Value(s32.Members), 1e-6)
	}
}

// TestLocalSearchFloat32MatchesFloat64 is the local-search analogue, seeded
// from each backend's own greedy solution as in the paper's LS setup.
func TestLocalSearchFloat32MatchesFloat64(t *testing.T) {
	const n, k = 200, 16
	f64, f32 := pointObjectives(t, n, 16, 5)
	uni, err := matroid.NewUniform(n, k)
	if err != nil {
		t.Fatal(err)
	}
	run := func(obj *Objective) *Solution {
		g, err := GreedyB(obj, k)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := LocalSearch(obj, uni, &LSOptions{Init: g.Members})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	s64, s32 := run(f64), run(f32)
	assertClose(t, "local-search value", f64.Value(s64.Members), f64.Value(s32.Members), 1e-4)
}

// TestFloat32SerialParallelIdentical: on the same backend, every worker
// count must return byte-identical solutions (the engine's total-order
// selection contract, now exercised through the f32 row-accumulate path).
func TestFloat32SerialParallelIdentical(t *testing.T) {
	const n, k = 300, 24
	_, f32 := pointObjectives(t, n, 8, 11)
	serial, err := GreedyB(f32, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := GreedyB(f32, k, WithPool(engine.New(workers)))
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Members) != len(serial.Members) || par.Value != serial.Value {
			t.Fatalf("workers=%d: solution diverged: %v (%.17g) vs serial %v (%.17g)",
				workers, par.Members, par.Value, serial.Members, serial.Value)
		}
		for i := range par.Members {
			if par.Members[i] != serial.Members[i] {
				t.Fatalf("workers=%d: member %d = %d, want %d", workers, i, par.Members[i], serial.Members[i])
			}
		}
	}

	uni, err := matroid.NewUniform(n, k)
	if err != nil {
		t.Fatal(err)
	}
	lsSerial, err := LocalSearch(f32, uni, &LSOptions{Init: serial.Members})
	if err != nil {
		t.Fatal(err)
	}
	lsPar, err := LocalSearch(f32, uni, &LSOptions{Init: serial.Members, Pool: engine.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if lsSerial.Value != lsPar.Value || lsSerial.Swaps != lsPar.Swaps {
		t.Fatalf("local search diverged: serial %.17g/%d swaps, parallel %.17g/%d swaps",
			lsSerial.Value, lsSerial.Swaps, lsPar.Value, lsPar.Swaps)
	}
}

// TestGreedyRoundZeroAllocs pins the zero-allocation contract of the steady
// state: with modular quality, a row-accumulating backend, and a serial
// pool, one round of the greedy driver — the argmax-over-candidates scan
// plus the State.Add row fold — must not allocate once the driver's scratch
// exists. This is the regression fence for the hot path; the bench suite
// tracks the same property end to end as allocs/op.
func TestGreedyRoundZeroAllocs(t *testing.T) {
	_, f32 := pointObjectives(t, 2048, 8, 3)
	st := f32.AcquireState()
	defer f32.ReleaseState(st)
	g := st.startSolo(nil, nil, f32.N(), false)
	defer g.finish()
	round := func() {
		if grew, err := g.round(); !grew || err != nil {
			t.Fatalf("round: grew %v, err %v", grew, err)
		}
	}
	for i := 0; i < 4; i++ {
		round() // warm: the first round binds the kernel's scratch
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("steady-state greedy round allocates %.1f times per run, want 0", allocs)
	}
}

// TestMultiTraceRoundZeroAllocs is the multi-λ analogue: two λs whose
// picks agree share one branch, and a steady-state round — one fused scan,
// one row fold, two trace records — must not allocate.
func TestMultiTraceRoundZeroAllocs(t *testing.T) {
	const k = 200
	_, f32 := pointObjectives(t, 2048, 8, 3)
	targets := []LambdaTarget{{Lambda: 0.2, K: k}, {Lambda: math.Nextafter(0.2, 1), K: k}}
	traces := make([]*GreedyTrace, len(targets))
	for j := range traces {
		traces[j] = &GreedyTrace{
			Order: make([]int, 0, k), Value: make([]float64, 0, k),
			FValue: make([]float64, 0, k), Dispersion: make([]float64, 0, k),
		}
	}
	st := f32.AcquireState()
	defer f32.ReleaseState(st)
	g := st.startRun(nil, nil, false, targets, traces)
	defer g.finish()
	round := func() {
		if grew, err := g.round(); !grew || err != nil {
			t.Fatalf("round: grew %v, err %v", grew, err)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(50, round)
	if len(g.branches) != 1 {
		t.Fatalf("the two λs forked into %d branches; the fence needs one", len(g.branches))
	}
	if allocs != 0 {
		t.Fatalf("steady-state two-λ round allocates %.1f times per run, want 0", allocs)
	}
	if traces[0].Len() != 55 || traces[1].Len() != 55 {
		t.Fatalf("traces recorded %d and %d picks, want 55 each", traces[0].Len(), traces[1].Len())
	}
}

// TestSwapScanZeroAllocs is the local-search analogue: one bestSwap
// neighborhood scan in steady state must not allocate on the serial path.
func TestSwapScanZeroAllocs(t *testing.T) {
	_, f32 := pointObjectives(t, 1024, 8, 9)
	st := f32.AcquireState()
	defer f32.ReleaseState(st)
	for u := 0; u < 12; u++ {
		st.Add(u)
	}
	sc := newScanner(st, nil)
	members := st.Members()
	if b := sc.bestSwap(members, 1e-12, nil); b.Index == -1 {
		t.Skip("instance already locally optimal; scan still exercised")
	}
	allocs := testing.AllocsPerRun(20, func() {
		_ = sc.bestSwap(members, 1e-12, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state swap scan allocates %.1f times per run, want 0", allocs)
	}
}

// TestSwapRoundZeroAllocsUniform pins the local-search steady state under
// the uniform constraint: one full improving-swap round — the bestSwap
// neighborhood scan, the applied State.Swap, and the in-place members
// refresh — must not allocate. Uniform matroids take the no-filter fast
// path (every swap preserves |S|), exactly as LocalSearch routes them.
func TestSwapRoundZeroAllocsUniform(t *testing.T) {
	_, f32 := pointObjectives(t, 1024, 8, 13)
	st := f32.AcquireState()
	defer f32.ReleaseState(st)
	for u := 0; u < 12; u++ {
		st.Add(u)
	}
	sc := newScanner(st, nil)
	members := append([]int(nil), st.members...)
	// Warm: realize cached closures, then run rounds like LocalSearch does.
	allocs := testing.AllocsPerRun(20, func() {
		b := sc.bestSwap(members, 1e-12, nil)
		if b.Index == -1 {
			return
		}
		st.Swap(b.Aux, b.Index)
		sc.swapped(b.Aux, b.Index)
		members = append(members[:0], st.members...)
	})
	if allocs != 0 {
		t.Fatalf("uniform swap round allocates %.1f times per run, want 0", allocs)
	}
}

// TestSwapRoundZeroAllocsMatroid is the matroid-filtered analogue: swap
// probes route through a per-worker Prober whose scratch amortizes across
// rounds, so even with a partition constraint in the loop the steady-state
// round must not allocate. This (plus the Prober) is the fix for the
// ~1.2k allocs/op the pre-redesign local search paid per swap pass.
func TestSwapRoundZeroAllocsMatroid(t *testing.T) {
	const n, k = 1024, 12
	_, f32 := pointObjectives(t, n, 8, 17)
	partOf := make([]int, n)
	caps := make([]int, 4)
	for i := range partOf {
		partOf[i] = i % 4
	}
	for i := range caps {
		caps[i] = k
	}
	m, err := matroid.NewPartition(partOf, caps)
	if err != nil {
		t.Fatal(err)
	}
	st := f32.AcquireState()
	defer f32.ReleaseState(st)
	for u := 0; u < k; u++ {
		st.Add(u)
	}
	sc := newScanner(st, nil)
	members := append([]int(nil), st.members...)
	probers := make([]matroid.Prober, 1)
	canSwap := func(worker, out, in int) bool {
		return probers[worker].CanSwap(m, members, out, in)
	}
	// Warm one round so the prober's buffer and scorer closures exist.
	if b := sc.bestSwap(members, 1e-12, canSwap); b.Index != -1 {
		st.Swap(b.Aux, b.Index)
		sc.swapped(b.Aux, b.Index)
		members = append(members[:0], st.members...)
	}
	allocs := testing.AllocsPerRun(20, func() {
		b := sc.bestSwap(members, 1e-12, canSwap)
		if b.Index == -1 {
			return
		}
		st.Swap(b.Aux, b.Index)
		sc.swapped(b.Aux, b.Index)
		members = append(members[:0], st.members...)
	})
	if allocs != 0 {
		t.Fatalf("matroid swap round allocates %.1f times per run, want 0", allocs)
	}
}

// TestLocalSearchCallAllocsBounded fences the whole LocalSearch call: with
// pooled state, cached scorer closures, per-worker probers and the in-place
// member snapshots, an entire bounded polish (the bench workload) must stay
// within a small constant allocation budget — the regression fence for the
// ROADMAP's "local search allocates ~1.2k/op" item.
func TestLocalSearchCallAllocsBounded(t *testing.T) {
	const n, k = 1000, 16
	_, f32 := pointObjectives(t, n, 16, 19)
	uni, err := matroid.NewUniform(n, k)
	if err != nil {
		t.Fatal(err)
	}
	init, err := GreedyB(f32, k)
	if err != nil {
		t.Fatal(err)
	}
	opts := &LSOptions{Init: init.Members, MaxSwaps: 4}
	if _, err := LocalSearch(f32, uni, opts); err != nil {
		t.Fatal(err) // warm the state pool
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := LocalSearch(f32, uni, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The remaining per-call allocations are setup (scanner + cached
	// closures, the basis extension, the solution snapshot), not per-swap
	// or per-probe work.
	const budget = 64
	if allocs > budget {
		t.Fatalf("LocalSearch allocates %.0f times per call, want ≤ %d", allocs, budget)
	}
}

// TestStatePoolReuse checks AcquireState actually recycles and resets.
func TestStatePoolReuse(t *testing.T) {
	_, f32 := pointObjectives(t, 64, 4, 21)
	st := f32.AcquireState()
	st.Add(3)
	st.Add(7)
	f32.ReleaseState(st)
	st2 := f32.AcquireState()
	if st2 != st {
		// The runtime may clear a sync.Pool at any time; only verify the
		// reset contract when recycling did happen.
		t.Logf("pool did not recycle (GC?); skipping identity check")
	}
	if st2.Size() != 0 || st2.Value() != 0 {
		t.Fatalf("acquired state not reset: size=%d value=%g", st2.Size(), st2.Value())
	}
	for u := 0; u < 64; u++ {
		if st2.Contains(u) {
			t.Fatalf("acquired state still contains %d", u)
		}
		if st2.DistToSet(u) != 0 {
			t.Fatalf("acquired state has du[%d] = %g", u, st2.DistToSet(u))
		}
	}
	f32.ReleaseState(st2)

	// Releasing to the wrong objective must be a no-op, not a poisoning.
	_, other := pointObjectives(t, 64, 4, 22)
	other.ReleaseState(st2)
}
