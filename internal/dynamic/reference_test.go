package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/dataset"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// refSession is the Session as it ran before it read the caller's
// distances, kept frozen as the bit-for-bit reference of the restricted
// rescans and the O(p) weight refresh: it deep-copies the instance at
// construction, reloads the whole State (SetTo) after every perturbation,
// and runs the full BestSwap on every update.
type refSession struct {
	inst    *dataset.Instance
	mod     *setfunc.Modular
	lambda  float64
	obj     *core.Objective
	st      *core.State
	p       int
	pool    *engine.Pool
	stale   bool
	pending []int
}

func newRefSession(weights []float64, d metric.Metric, lambda float64, initial []int) (*refSession, error) {
	dense, ok := d.(*metric.Dense)
	if ok {
		dense = dense.Clone()
	} else {
		dense = metric.Materialize(d)
	}
	inst := &dataset.Instance{Weights: slices.Clone(weights), Dist: dense}
	mod, err := setfunc.NewModular(inst.Weights)
	if err != nil {
		return nil, err
	}
	obj, err := core.NewObjective(mod, lambda, inst.Dist)
	if err != nil {
		return nil, err
	}
	st := obj.NewState()
	st.SetTo(initial)
	return &refSession{inst: inst, mod: mod, lambda: lambda, obj: obj, st: st, p: len(initial)}, nil
}

func (s *refSession) setParallelism(k int) {
	if k == 1 {
		s.pool = nil
		return
	}
	s.pool = engine.New(k)
}

func (s *refSession) members() []int { s.ensureFresh(); return s.st.Members() }
func (s *refSession) value() float64 { s.ensureFresh(); return s.st.Value() }

func (s *refSession) setWeight(u int, w float64) (Perturbation, error) {
	s.ensureFresh()
	if u < 0 || u >= s.obj.N() {
		return Perturbation{}, fmt.Errorf("bad element")
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return Perturbation{}, fmt.Errorf("bad weight")
	}
	old := s.mod.Weight(u)
	s.mod.SetWeight(u, w)
	s.inst.Weights[u] = w
	s.st.SetTo(s.st.Members())
	kind := NoChange
	switch {
	case w > old:
		kind = WeightIncrease
	case w < old:
		kind = WeightDecrease
	}
	return Perturbation{Kind: kind, U: u, V: -1, Old: old, New: w}, nil
}

func (s *refSession) setDistance(u, v int, d float64) (Perturbation, error) {
	s.ensureFresh()
	n := s.obj.N()
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return Perturbation{}, fmt.Errorf("bad pair")
	}
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return Perturbation{}, fmt.Errorf("bad distance")
	}
	old := s.inst.Dist.Distance(u, v)
	s.inst.Dist.SetDistance(u, v, d)
	s.st.SetTo(s.st.Members())
	kind := NoChange
	switch {
	case d > old:
		kind = DistanceIncrease
	case d < old:
		kind = DistanceDecrease
	}
	return Perturbation{Kind: kind, U: u, V: v, Old: old, New: d}, nil
}

func (s *refSession) update() (bool, float64) {
	s.ensureFresh()
	out, in, gain, ok := s.st.BestSwap(s.pool, 1e-15, nil)
	if !ok {
		return false, 0
	}
	s.st.Swap(out, in)
	return true, gain
}

func (s *refSession) maintain(pert Perturbation, prevValue float64) (int, error) {
	k := 0
	switch pert.Kind {
	case WeightIncrease, DistanceIncrease, DistanceDecrease:
		k = 1
	case WeightDecrease:
		var err error
		if k, err = Theorem4Updates(prevValue, pert.Delta(), s.p); err != nil {
			return 0, err
		}
	}
	applied := 0
	for i := 0; i < k; i++ {
		if swapped, _ := s.update(); !swapped {
			break
		}
		applied++
	}
	return applied, nil
}

func (s *refSession) ensureFresh() {
	if !s.stale {
		return
	}
	mod, err := setfunc.NewModular(s.inst.Weights)
	if err != nil {
		panic(err)
	}
	obj, err := core.NewObjective(mod, s.lambda, s.inst.Dist)
	if err != nil {
		panic(err)
	}
	s.mod, s.obj = mod, obj
	s.st = obj.NewState()
	s.st.SetTo(s.pending)
	s.pending, s.stale = nil, false
	_ = s.st.Fill(nil, s.pool, s.p)
}

func (s *refSession) markStale() {
	if !s.stale {
		s.pending = s.st.Members()
		s.stale = true
	}
}

func (s *refSession) setTarget(p int) error {
	if p < 0 {
		return fmt.Errorf("bad target")
	}
	s.ensureFresh()
	s.p = p
	for s.st.Size() > p {
		worst, worstLoss := -1, math.Inf(1)
		for _, u := range s.st.Members() {
			if loss := s.mod.Weight(u) + s.lambda*(s.st.DistToSet(u)); loss < worstLoss {
				worst, worstLoss = u, loss
			}
		}
		s.st.Remove(worst)
	}
	_ = s.st.Fill(nil, s.pool, s.p)
	return nil
}

func (s *refSession) insert(w float64, dists []float64) (int, error) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("bad weight")
	}
	if len(dists) != len(s.inst.Weights) {
		return 0, fmt.Errorf("bad row")
	}
	s.markStale()
	idx, err := s.inst.Dist.AppendRow(dists)
	if err != nil {
		return 0, err
	}
	s.inst.Weights = append(s.inst.Weights, w)
	return idx, nil
}

func (s *refSession) delete(u int) (int, error) {
	n := len(s.inst.Weights)
	if u < 0 || u >= n {
		return 0, fmt.Errorf("bad element")
	}
	s.markStale()
	last := n - 1
	if err := s.inst.Dist.RemoveSwap(u); err != nil {
		return 0, err
	}
	s.inst.Weights[u] = s.inst.Weights[last]
	s.inst.Weights = s.inst.Weights[:last]
	out := s.pending[:0]
	for _, m := range s.pending {
		switch m {
		case u:
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

// Value tables of the op replay: few distinct values, so weights, distances
// and swap gains tie. A weight of 100 dropped to 0 gives Theorem 4 counts
// above 1 at λ = 0.01.
var (
	replayWeights = []float64{0, 0.25, 0.5, 1, 4, 100}
	replayDists   = []float64{0, 0.5, 1, 1.5, 2}
	replayLambdas = []float64{0, 0.01, 0.3, 1}
)

// replayBackends builds the distance backends the replay runs on, all over
// the same points.
var replayBackends = []struct {
	name  string
	build func(pts [][]float64) metric.Metric
}{
	{"dense", func(pts [][]float64) metric.Metric { return metric.Materialize(mustPoints(pts)) }},
	{"f32", func(pts [][]float64) metric.Metric { return metric.MaterializeF32(mustPoints(pts)) }},
	{"vec", func(pts [][]float64) metric.Metric {
		v, err := metric.NewVecStoreFromVectors(metric.KindVecF32, pts)
		if err != nil {
			panic(err)
		}
		return v
	}},
	{"lazy", func(pts [][]float64) metric.Metric { return metric.NewCached(mustPoints(pts)) }},
}

func mustPoints(pts [][]float64) *metric.Points {
	p, err := metric.NewPoints(pts, metric.L2)
	if err != nil {
		panic(err)
	}
	return p
}

// opBytes reads the op stream; past its end it yields zeros.
type opBytes struct {
	data []byte
	i    int
}

func (r *opBytes) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return int(r.data[r.i-1])
}

// replayStats counts the scans a replay ran, by the session's state before
// the scan.
type replayStats struct {
	full, member, nonMember, skipped int
	multi                            int // Maintain calls prescribing more than one update
}

// replaySessionOps decodes data into a Session op sequence and runs it on a
// Session and on the frozen reference over backend b, failing on the first
// difference in an error, a perturbation record, a swap, a Maintain count,
// the members (in order), the Value bits or the bits of any d_u(S).
func replaySessionOps(t *testing.T, b int, data []byte, stats *replayStats) {
	t.Helper()
	r := &opBytes{data: data}
	n := 4 + r.next()%21
	lambda := replayLambdas[r.next()%len(replayLambdas)]
	rng := rand.New(rand.NewSource(int64(r.next())))
	pts := make([][]float64, n)
	for i := range pts {
		// Small integer coordinates repeat points and distances.
		pts[i] = []float64{float64(rng.Intn(3)), float64(rng.Intn(3))}
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = replayWeights[rng.Intn(4)]
	}
	initial := rng.Perm(n)[:1+r.next()%min(n, 8)]
	d := replayBackends[b].build(pts)
	got, err := NewSession(weights, d, lambda, initial)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSession(weights, d, lambda, initial)
	if err != nil {
		t.Fatal(err)
	}
	name := replayBackends[b].name
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s λ=%g step %d: %s", name, lambda, step, fmt.Sprintf(format, args...))
	}
	sameErr := func(step int, op string, e1, e2 error) bool {
		t.Helper()
		if (e1 == nil) != (e2 == nil) {
			fail(step, "%s: error %v, reference %v", op, e1, e2)
		}
		return e1 == nil
	}
	// count records which scan the session's next update runs.
	count := func() {
		switch {
		case stats == nil:
		case !got.stable:
			stats.full++
		case got.touched == -1:
			stats.skipped++
		case got.st.Contains(got.touched):
			stats.member++
		default:
			stats.nonMember++
		}
	}
	maintain := func(step int, op string, gp, rp Perturbation, gPrev, rPrev float64) {
		t.Helper()
		if gp.Kind != rp.Kind || math.Float64bits(gp.Old) != math.Float64bits(rp.Old) || math.Float64bits(gp.New) != math.Float64bits(rp.New) {
			fail(step, "%s: perturbation %+v, reference %+v", op, gp, rp)
		}
		count()
		if k, err := got.UpdatesFor(gp, gPrev); stats != nil && err == nil && k > 1 {
			stats.multi++
		}
		gk, gErr := got.Maintain(gp, gPrev)
		rk, rErr := ref.maintain(rp, rPrev)
		if sameErr(step, op+" Maintain", gErr, rErr) && gk != rk {
			fail(step, "%s: Maintain applied %d swaps, reference %d", op, gk, rk)
		}
	}
	for step := 0; r.i < len(r.data); step++ {
		op, arg := r.next()%16, r.next()
		n := got.N()
		compare := true
		switch {
		case op < 8 && n > 0: // weight perturbation
			u, w := arg%n, replayWeights[r.next()%len(replayWeights)]
			gPrev, rPrev := got.Value(), ref.value()
			gp, gErr := got.SetWeight(u, w)
			rp, rErr := ref.setWeight(u, w)
			if sameErr(step, "SetWeight", gErr, rErr) {
				maintain(step, "SetWeight", gp, rp, gPrev, rPrev)
			}
		case op < 10 && n > 1: // distance perturbation
			u, v := arg%n, r.next()%n
			if u == v {
				v = (v + 1) % n
			}
			dist := replayDists[r.next()%len(replayDists)]
			gPrev, rPrev := got.Value(), ref.value()
			gp, gErr := got.SetDistance(u, v, dist)
			rp, rErr := ref.setDistance(u, v, dist)
			if sameErr(step, "SetDistance", gErr, rErr) {
				maintain(step, "SetDistance", gp, rp, gPrev, rPrev)
			}
		case op == 10 && n < 40: // insert, batched with the next mutations
			row := make([]float64, n)
			for i := range row {
				row[i] = replayDists[(arg+i*7)%len(replayDists)]
			}
			w := replayWeights[r.next()%len(replayWeights)]
			gi, gErr := got.InsertElement(w, slices.Clone(row))
			ri, rErr := ref.insert(w, row)
			if sameErr(step, "Insert", gErr, rErr) && gi != ri {
				fail(step, "Insert index %d, reference %d", gi, ri)
			}
			compare = false
		case op == 11 && n > 1: // delete, batched with the next mutations
			gm, gErr := got.DeleteElement(arg % n)
			rm, rErr := ref.delete(arg % n)
			if sameErr(step, "Delete", gErr, rErr) && gm != rm {
				fail(step, "Delete moved %d, reference %d", gm, rm)
			}
			compare = false
		case op == 12:
			p := 1 + arg%8
			sameErr(step, "SetTarget", got.SetTarget(p), ref.setTarget(p))
		case op == 13:
			got.SetParallelism(1 + arg%2)
			ref.setParallelism(1 + arg%2)
		default:
			count()
			gs, gg := got.ObliviousUpdate()
			rs, rg := ref.update()
			if gs != rs || math.Float64bits(gg) != math.Float64bits(rg) {
				fail(step, "update (%v, %v), reference (%v, %v)", gs, gg, rs, rg)
			}
		}
		if !compare {
			continue
		}
		if gm, rm := got.Members(), ref.members(); !slices.Equal(gm, rm) {
			fail(step, "members %v, reference %v", gm, rm)
		}
		if gv, rv := got.Value(), ref.value(); math.Float64bits(gv) != math.Float64bits(rv) {
			fail(step, "Value %v, reference %v", gv, rv)
		}
		// d_u(S) for every item, so a state that matches only by luck of
		// rounding fails before the next scan reads it.
		for v := range got.N() {
			if gd, rd := got.st.DistToSet(v), ref.st.DistToSet(v); math.Float64bits(gd) != math.Float64bits(rd) {
				fail(step, "d_%d(S) = %v, reference %v", v, gd, rd)
			}
		}
	}
}

// TestSessionMatchesFrozenReference replays seeded op sequences — weight
// increases and decreases (Theorem 4 counts above 1 included), distance
// changes, inserts, deletes, target changes and 1- and 2-worker scans —
// through a Session and the frozen reference on the Dense, DenseF32, vector
// and lazy backends, over repeated points and tied weights. Every step must
// match bit for bit, and the replay must run both restricted rescans and
// the no-change skip.
func TestSessionMatchesFrozenReference(t *testing.T) {
	var stats replayStats
	for b := range replayBackends {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 3000)
			rng.Read(data)
			replaySessionOps(t, b, data, &stats)
		}
	}
	t.Logf("scans: %d full, %d restricted to a member, %d to a non-member, %d skipped; %d multi-update Maintains",
		stats.full, stats.member, stats.nonMember, stats.skipped, stats.multi)
	if stats.member == 0 || stats.nonMember == 0 || stats.skipped == 0 || stats.multi == 0 {
		t.Fatalf("replay did not reach every restricted branch: %+v", stats)
	}
}

// FuzzSessionOps decodes its input into the same op sequence as
// TestSessionMatchesFrozenReference and replays it on every backend.
func FuzzSessionOps(f *testing.F) {
	f.Add([]byte{5, 1, 7, 3, 0, 2, 1, 0, 4, 14, 0, 3, 1, 5, 2, 0, 6, 0, 15, 0})
	f.Add([]byte{20, 1, 1, 7, 1, 0, 5, 2, 1, 3, 0, 9, 1, 2, 2, 10, 4, 1, 11, 2, 14, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		for b := range replayBackends {
			replaySessionOps(t, b, data, nil)
		}
	})
}
