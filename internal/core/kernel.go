package core

import (
	"context"
	"slices"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
)

// This file holds the slice kernels of the two per-round scans the
// paper's algorithms spend their time in, for the modular (weight-sum)
// quality:
//
//   - the (w, d_u) argmax of the greedy family (Greedy B, the oblivious
//     ablation, Greedy A's last pick, and every branch of a multi-λ solve);
//   - the (out ∈ S, in ∉ S) swap scan of the local search and the Section 6
//     oblivious update, over the staged rows of the p members.
//
// With modular quality a candidate's score is one weight, one d_u(S) entry
// and at most one stored distance, so each kernel is a loop over flat
// slices with no closure and no interface call per candidate. Every score
// goes through the same helpers (potScore, objScore, swapScore) as the
// evaluator paths that serve non-modular quality, and every selection
// keeps the scans' total order (best score, ties to the lowest index), so
// kernel and evaluator paths pick the same candidates bit for bit. The
// best-pair openings read rows through rowReader below; their one pass
// lives in pairs.go.

// kernelMinShard is the fan-out minimum of the kernels: a scan splits
// across the pool only when every shard scores at least this many
// candidates (pairs, for the pair and swap scans). Measured on a 2-vCPU VM
// (one argmax round, serial against a 2-way split): n = 8000 costs 17 µs
// serial and 21 µs split, n = 16 000 breaks even at 34 µs, and n = 100 000
// costs 230 µs serial and 155 µs split.
const kernelMinShard = 8192

// cancelStride is how many candidates a kernel scores between polls of the
// context, as in the engine.
const cancelStride = 1024

// wduScan is the (w, d_u) argmax: for every λ in lambdas it finds the
// non-member u maximizing potScore(w[u], λ, du[u]) (objScore when
// oblivious). A single-λ scan is the nL = 1 case. The state fields are
// rebound between rounds and the scratch is reused, so a serial round
// allocates nothing.
type wduScan struct {
	w, du     []float64
	in        []bool
	oblivious bool
	lambdas   []float64
	ctx       context.Context          // optional; polled once per block
	wins      []wduBest                // per-shard winners: shard s's λ j at s·nL + j
	res       []wduBest                // merged winner per λ (idx -1 when none is eligible)
	body      func(worker, lo, hi int) // shard, bound once for parallel pools
}

// wduBest is one argmax winner: its score and index (-1 = none).
type wduBest struct {
	val float64
	idx int
}

// run scans [0, n) for the bound state and returns the winner per λ in
// storage reused across rounds.
func (s *wduScan) run(pool *engine.Pool, n int) []wduBest {
	nL, workers := len(s.lambdas), pool.Workers()
	s.wins = slices.Grow(s.wins[:0], workers*nL)[:workers*nL]
	for i := range s.wins {
		s.wins[i] = wduBest{idx: -1}
	}
	if workers == 1 {
		s.shard(0, 0, n) // direct call: a serial round binds no closure
	} else {
		if s.body == nil {
			s.body = s.shard
		}
		pool.ForMin(n, kernelMinShard, s.body)
	}
	s.res = s.res[:0]
	for j := 0; j < nL; j++ {
		best := wduBest{idx: -1}
		for w := 0; w < workers; w++ {
			// Strict > keeps the earlier shard (lower indices) on ties.
			if r := s.wins[w*nL+j]; r.idx != -1 && (best.idx == -1 || r.val > best.val) {
				best = r
			}
		}
		s.res = append(s.res, best)
	}
	return s.res
}

// shard is the argmax loop itself over candidates [lo, hi): strict > keeps
// the lowest index among equal scores for every λ. Candidates stream in
// blocks of cancelStride; each λ sweeps the block with its incumbent in
// registers, so the block's (w, d_u) pairs are loaded from memory once and
// re-read from L1 by the other λs.
func (s *wduScan) shard(worker, lo, hi int) {
	nL := len(s.lambdas)
	wins := s.wins[worker*nL : worker*nL+nL]
	for blk := lo; blk < hi; blk += cancelStride {
		if ctxErr(s.ctx) != nil {
			return // partial shard; the caller checks ctx and discards
		}
		end := min(blk+cancelStride, hi)
		w := s.w[blk:end]
		du, in := s.du[blk:end][:len(w)], s.in[blk:end][:len(w)]
		for j, lam := range s.lambdas {
			bv, bi := wins[j].val, wins[j].idx
			if s.oblivious {
				for u, wu := range w {
					if v := objScore(wu, lam, du[u]); !in[u] && (bi == -1 || v > bv) {
						bv, bi = v, blk+u
					}
				}
			} else {
				for u, wu := range w {
					if v := potScore(wu, lam, du[u]); !in[u] && (bi == -1 || v > bv) {
						bv, bi = v, blk+u
					}
				}
			}
			wins[j] = wduBest{bv, bi}
		}
	}
}

// pairPotScore and pairObjScore score an opening pair {x, y} from the
// qualities f({x}) and the marginal f_y({x}) (both weights under modular
// quality): the greedy potential ½f({x,y}) + λd(x,y) of the Table 3
// opening, and the objective f({x,y}) + λd(x,y) of the Section 5 seed.
func pairPotScore(fx, fy, lambda, d float64) float64 { return 0.5*(fx+fy) + lambda*d }
func pairObjScore(fx, fy, lambda, d float64) float64 { return fx + fy + lambda*d }

// rowReader reads row x of a pair scan as a slice over partners y > x:
// DenseF32 rows directly, every other backend through a private scratch
// row holding exactly the values Distance returns. Stored-distance
// accumulators fill it with one AccumulateRow; backends that compute rows
// on demand (metric.RowBatcher) are read pair by pair instead, so an O(n)
// sweep of rows never churns their bounded row cache.
type rowReader struct {
	f32 *metric.DenseF32
	acc metric.RowAccumulator
	d   metric.Metric
	buf []float64
}

// newRowReader returns a reader for one scan worker (the scratch row is
// private to it).
func newRowReader(d metric.Metric) *rowReader {
	r := &rowReader{d: d}
	if f, ok := d.(*metric.DenseF32); ok {
		r.f32 = f
		return r
	}
	if acc, ok := d.(metric.RowAccumulator); ok {
		if _, computed := d.(metric.RowBatcher); !computed {
			r.acc = acc
		}
	}
	r.buf = make([]float64, d.Len())
	return r
}

// row64 returns d(x, y) for y ∈ (x, n) in the scratch row.
func (r *rowReader) row64(x int) []float64 {
	if r.acc != nil {
		clear(r.buf)
		r.acc.AccumulateRow(x, 1, r.buf)
		return r.buf[x+1:]
	}
	for y := x + 1; y < len(r.buf); y++ {
		r.buf[y] = r.d.Distance(x, y)
	}
	return r.buf[x+1:]
}

// swapScore is the Section 6 swap gain φ(S − out + in) − φ(S) from its
// parts: the quality change fGain, and d_in(S) − d(in, out) − d_out(S),
// the dispersion change. The evaluator path (State.swapGainWith) and the
// swap kernel share it.
func swapScore(fGain, lambda, duIn, dInOut, duOut float64) float64 {
	return fGain + lambda*(duIn-dInOut-duOut)
}

// swapStage holds the p member rows of one swap pass, staged once per pass
// so the kernel reads d(in, out) as rows[j][in]. DenseF32 and vector
// backends hand out their float32 rows without copying; every other
// backend stages float64 rows (AccumulateRow into zeroed scratch, or
// Distance calls) holding exactly the values Distance returns. Headers
// and buffers are reused across passes.
type swapStage struct {
	f32    bool // this pass reads rows32, not rows64
	rows32 [][]float32
	rows64 [][]float64
	wOut   []float64 // w(out) per member
	duOut  []float64 // d_out(S) per member
	buf    []float64 // backs wOut, duOut and rows64
}

// stage loads the rows of members for the state's metric.
func (sg *swapStage) stage(st *State, members []int) {
	p, n := len(members), len(st.du)
	d := st.obj.d
	f32, _ := d.(*metric.DenseF32)
	batcher, _ := d.(metric.RowBatcher)
	sg.f32 = f32 != nil || batcher != nil
	size := 2 * p
	if !sg.f32 {
		size += p * n
	}
	if cap(sg.buf) < size {
		sg.buf = make([]float64, size)
	}
	sg.wOut, sg.duOut = sg.buf[:p], sg.buf[p:2*p]
	w := st.modular.Weights()
	for j, out := range members {
		sg.wOut[j], sg.duOut[j] = w[out], st.du[out]
	}
	sg.rows32, sg.rows64 = sg.rows32[:0], sg.rows64[:0]
	switch {
	case f32 != nil:
		sg.rows32 = slices.Grow(sg.rows32, p)
		for _, out := range members {
			sg.rows32 = append(sg.rows32, f32.Row(out))
		}
		return
	case batcher != nil:
		sg.rows32 = batcher.Rows(members, sg.rows32)
		return
	}
	sg.rows64 = slices.Grow(sg.rows64, p)
	for j, out := range members {
		row := sg.buf[2*p+j*n : 2*p+(j+1)*n]
		if st.rowAcc != nil {
			clear(row)
			st.rowAcc.AccumulateRow(out, 1, row)
		} else {
			for v := range row {
				row[v] = d.Distance(v, out)
			}
		}
		sg.rows64 = append(sg.rows64, row)
	}
}

// release drops the staged row headers after a pass, so rows handed out by
// a backend's row cache are not kept alive past their eviction.
func (sg *swapStage) release() {
	clear(sg.rows32[:cap(sg.rows32)])
}

// swapRows is the swap kernel over candidates [lo, hi): for each
// non-member in, the member out maximizing swapScore, and the best such
// pair strictly above threshold. Ties keep the lowest incoming index, then
// the earliest member. A pair must beat the shard's running best before
// the filter (matroid feasibility) is consulted.
func swapRows[T float32 | float64](ctx context.Context, rows [][]T, sg *swapStage, st *State, members []int, threshold float64, filter func(worker, out, in int) bool, worker, lo, hi int) engine.Best {
	best := engine.Best{Index: -1}
	w, du, in := st.modular.Weights()[:hi], st.du[:hi], st.in[:hi]
	lambda := st.obj.lambda
	wOut, duOut := sg.wOut[:len(rows)], sg.duOut[:len(rows)]
	members = members[:len(rows)]
	for blk := lo; blk < hi; blk += cancelStride {
		if ctxErr(ctx) != nil {
			return best
		}
		for c := blk; c < min(blk+cancelStride, hi); c++ {
			if in[c] {
				continue
			}
			wc, dc := w[c], du[c]
			bestOut, bestGain := -1, threshold
			if best.Index != -1 && best.Value > bestGain {
				bestGain = best.Value // a tie with an earlier candidate loses
			}
			for j, row := range rows {
				g := swapScore(wc-wOut[j], lambda, dc, float64(row[c]), duOut[j])
				if g <= bestGain {
					continue
				}
				if filter != nil && !filter(worker, members[j], c) {
					continue
				}
				bestOut, bestGain = members[j], g
			}
			if bestOut != -1 {
				best = engine.Best{Index: c, Aux: bestOut, Value: bestGain}
			}
		}
	}
	return best
}
