// Package candidate pre-filters a large ground set down to a candidate
// subset the solvers can scan in O(candidates·k) instead of O(n·k) — the
// stage that makes greedy and local search tractable at corpora far past
// the point where every item can be considered per pick.
//
// The filter is a random-projection sketch (sign-of-dot LSH): each item's
// vector is hashed to a b-bit signature by b seeded random hyperplanes, so
// items pointing the same way share a bucket and items pointing different
// ways land apart. Selection then takes the globally heaviest items (greedy
// needs the high-quality ones) and round-robins across buckets by
// descending weight (max-sum dispersion needs directionally spread ones).
// Both halves of the paper's objective φ(S) = f(S) + λ·Σ d(u,v) are thereby
// represented in the candidate set; the accuracy-vs-exact-scan probe in the
// bench suite measures how much of the exact objective the filtered scan
// retains.
//
// Selection splits into a sketch built once per corpus and signature width
// (signatures folded into flat heaviest-first bucket arrays) and a cheap
// per-query pass over it. Select builds a one-shot sketch; a Filter keeps
// one per width across calls, so repeated queries stop re-hashing vectors.
package candidate

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// maxSigBits caps the signature width; 2^16 buckets is plenty of directional
// resolution for any target the solvers ask for.
const maxSigBits = 16

// Params configures Select.
type Params struct {
	// Target is the desired candidate count; 0 applies DefaultTarget.
	// Targets ≥ n return the whole ground set (the filter never drops
	// below exact-scan when it wouldn't save anything).
	Target int
	// Seed fixes the random hyperplanes. The same (seed, dim) always draws
	// the same projections, so candidate sets are reproducible across
	// processes.
	Seed int64
}

// DefaultTarget is the candidate-count heuristic: enough candidates that
// greedy's k picks see a wide field (64 per pick), never fewer than 512 so
// small-k queries keep headroom, and never more than n.
func DefaultTarget(k, n int) int {
	t := 64 * k
	if t < 512 {
		t = 512
	}
	if t > n {
		t = n
	}
	return t
}

// Select returns a sorted slice of candidate indices into vecs, of size
// min(target, n). weights biases selection toward high-quality items; nil
// means uniform. Empty vectors hash to the zero signature (one bucket), so
// degenerate inputs degrade to weight-ordered selection rather than failing.
// It is a one-shot Filter: build the sketch, select once.
func Select(vecs [][]float64, weights []float64, k int, p Params) []int {
	return NewFilter(vecs, weights, p.Seed).Select(k, p.Target)
}

// Filter is Select over one fixed corpus, with the sketch for each
// signature width built on first use and kept for the Filter's lifetime
// (about 8 bytes per item per width): repeated selections cost O(target)
// plus a pass over the buckets instead of re-hashing every vector. The
// vectors and weights are read when a width's sketch is built, so they
// must not change after NewFilter. Safe for concurrent use.
type Filter struct {
	vecs    [][]float64
	weights []float64
	seed    int64
	widths  [maxSigBits + 1]struct {
		once   sync.Once
		sketch *sketch
	}
}

// NewFilter returns a Filter over vecs and weights with the given
// hyperplane seed. It builds nothing.
func NewFilter(vecs [][]float64, weights []float64, seed int64) *Filter {
	return &Filter{vecs: vecs, weights: weights, seed: seed}
}

// Select returns exactly what Select(vecs, weights, k, Params{Target:
// target, Seed: seed}) returns.
func (f *Filter) Select(k, target int) []int {
	n := len(f.vecs)
	if target <= 0 {
		target = DefaultTarget(k, n)
	}
	if target >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	bits := width(target)
	w := &f.widths[bits]
	w.once.Do(func() { w.sketch = buildSketch(f.vecs, f.weights, bits, f.seed) })
	return w.sketch.selectTarget(target)
}

// width is the signature width for a target: about 2·target buckets, so
// round-robin takes ~one item per non-empty bucket per pass.
func width(target int) int {
	bits := 1
	for (1<<bits) < 2*target && bits < maxSigBits {
		bits++
	}
	return bits
}

// sketch is the build-once half of selection: everything that depends only
// on the corpus, the signature width and the seed. Items are named by rank,
// their position in the heaviest-first order, so "among the top q by
// weight" is the test rank < q.
type sketch struct {
	weighted bool
	order    []int32 // items heaviest-first (index order when unweighted)
	// members holds ranks grouped by bucket in ascending signature order,
	// ascending (so heaviest-first) within a bucket; bucket b is
	// members[bounds[b]:bounds[b+1]]. Empty buckets are left out.
	members []int32
	bounds  []int32
}

// buildSketch hashes every vector to a bits-wide signature and buckets the
// heaviest-first order by it.
func buildSketch(vecs [][]float64, weights []float64, bits int, seed int64) *sketch {
	n := len(vecs)
	dim := 0
	for _, v := range vecs {
		if len(v) > 0 {
			dim = len(v)
			break
		}
	}

	// Seeded Gaussian hyperplanes; sign of the projection is one signature
	// bit. One flat pass: n·bits·dim multiplies.
	rng := rand.New(rand.NewSource(seed))
	planes := make([]float64, bits*dim)
	for i := range planes {
		planes[i] = rng.NormFloat64()
	}
	sigs := make([]uint32, n)
	for i, v := range vecs {
		if len(v) > dim {
			v = v[:dim]
		}
		var sig uint32
		for b := 0; b < bits; b++ {
			h := planes[b*dim : b*dim+len(v)]
			var dot float64
			for c, x := range v {
				dot += h[c] * x
			}
			if dot > 0 {
				sig |= 1 << b
			}
		}
		sigs[i] = sig
	}

	s := &sketch{weighted: weights != nil, order: make([]int32, n)}
	for i := range s.order {
		s.order[i] = int32(i)
	}
	if weights != nil {
		slices.SortFunc(s.order, func(a, b int32) int {
			if c := cmp.Compare(weights[b], weights[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b) // deterministic tie-break
		})
	}

	// Counting sort of the ranks by signature: stable, so each bucket stays
	// heaviest-first.
	start := make([]int32, 1<<bits+1)
	for _, i := range s.order {
		start[sigs[i]+1]++
	}
	s.bounds = []int32{0}
	for sig := 1; sig < len(start); sig++ {
		if start[sig] > 0 {
			s.bounds = append(s.bounds, start[sig-1]+start[sig])
		}
		start[sig] += start[sig-1]
	}
	s.members = make([]int32, n)
	for r, i := range s.order {
		s.members[start[sigs[i]]] = int32(r)
		start[sigs[i]]++
	}
	return s
}

// selectTarget is the per-query half of selection, for 0 < target < n. It
// returns what Select returns whenever width(target) is the sketch's width.
func (s *sketch) selectTarget(target int) []int {
	out := make([]int, 0, target)

	// A quarter of the budget goes to the globally heaviest items: greedy's
	// first picks are weight-driven, and a bucket-only selection could
	// starve a heavy item stuck in a crowded bucket.
	top := 0
	if s.weighted {
		top = target / 4
		for _, i := range s.order[:top] {
			out = append(out, int(i))
		}
	}

	// Round-robin the buckets (heaviest remaining member each) until the
	// budget is spent: directional coverage for the dispersion term. The
	// members already taken are the ranks below top, a prefix of each
	// bucket; live keeps the buckets with members left, in signature order.
	nb := len(s.bounds) - 1
	cursor := make([]int32, nb)
	live := make([]int32, 0, nb)
	for b := range nb {
		lo, hi := s.bounds[b], s.bounds[b+1]
		c, _ := slices.BinarySearch(s.members[lo:hi], int32(top))
		cursor[b] = lo + int32(c)
		if cursor[b] < hi {
			live = append(live, int32(b))
		}
	}
	for len(out) < target && len(live) > 0 {
		kept := live[:0]
		for _, b := range live {
			if len(out) == target {
				break
			}
			out = append(out, int(s.order[s.members[cursor[b]]]))
			cursor[b]++
			if cursor[b] < s.bounds[b+1] {
				kept = append(kept, b)
			}
		}
		live = kept
	}
	slices.Sort(out)
	return out
}

// Accuracy is the bench probe's quality ratio: approx/exact clamped to
// [0, 1]-ish semantics (an exact objective of 0 with a matching approx
// counts as perfect). Shared here so the probe and the property tests agree
// on the definition.
func Accuracy(approx, exact float64) float64 {
	if exact == 0 {
		if approx == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return approx / exact
}
