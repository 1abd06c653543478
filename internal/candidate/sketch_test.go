package candidate

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceSelect is the one-shot Select as it stood before the sketch was
// split out: hash, bucket through a map, sort every bucket, sort all items
// by weight, round-robin. Frozen here as the bit-identity reference.
func referenceSelect(vecs [][]float64, weights []float64, k int, p Params) []int {
	n := len(vecs)
	target := p.Target
	if target <= 0 {
		target = DefaultTarget(k, n)
	}
	if target >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	dim := 0
	for _, v := range vecs {
		if len(v) > 0 {
			dim = len(v)
			break
		}
	}
	bits := 1
	for (1<<bits) < 2*target && bits < maxSigBits {
		bits++
	}
	rng := rand.New(rand.NewSource(p.Seed))
	planes := make([]float64, bits*dim)
	for i := range planes {
		planes[i] = rng.NormFloat64()
	}
	sigs := make([]uint32, n)
	for i, v := range vecs {
		var sig uint32
		for b := 0; b < bits; b++ {
			h := planes[b*dim : (b+1)*dim]
			var dot float64
			m := len(v)
			if m > dim {
				m = dim
			}
			for c := 0; c < m; c++ {
				dot += h[c] * v[c]
			}
			if dot > 0 {
				sig |= 1 << b
			}
		}
		sigs[i] = sig
	}
	buckets := make(map[uint32][]int, target)
	for i := range vecs {
		buckets[sigs[i]] = append(buckets[sigs[i]], i)
	}
	heavier := func(a, b int) bool {
		if weights == nil {
			return a < b
		}
		wa, wb := weights[a], weights[b]
		if wa != wb {
			return wa > wb
		}
		return a < b
	}
	keys := make([]uint32, 0, len(buckets))
	for sig, members := range buckets {
		keys = append(keys, sig)
		sort.Slice(members, func(x, y int) bool { return heavier(members[x], members[y]) })
	}
	sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
	picked := make([]bool, n)
	out := make([]int, 0, target)
	take := func(i int) {
		if !picked[i] {
			picked[i] = true
			out = append(out, i)
		}
	}
	if weights != nil {
		byWeight := make([]int, n)
		for i := range byWeight {
			byWeight[i] = i
		}
		sort.Slice(byWeight, func(x, y int) bool { return heavier(byWeight[x], byWeight[y]) })
		for _, i := range byWeight[:target/4] {
			take(i)
		}
	}
	cursor := make(map[uint32]int, len(buckets))
	for len(out) < target {
		advanced := false
		for _, sig := range keys {
			if len(out) >= target {
				break
			}
			members := buckets[sig]
			c := cursor[sig]
			for c < len(members) && picked[members[c]] {
				c++
			}
			if c < len(members) {
				take(members[c])
				cursor[sig] = c + 1
				advanced = true
			} else {
				cursor[sig] = c
			}
		}
		if !advanced {
			break
		}
	}
	sort.Ints(out)
	return out
}

// tiedCorpus is corpus with weights drawn from a handful of levels, so most
// items tie on weight and the index tie-break decides their order.
func tiedCorpus(seed int64, n, dim int) ([][]float64, []float64) {
	vecs, weights := corpus(seed, n, dim)
	for i := range weights {
		weights[i] = float64(int(weights[i]*4)) / 4
	}
	return vecs, weights
}

// raggedCorpus gives every fifth item an empty vector, every seventh a
// short one and every eleventh an over-long one.
func raggedCorpus(seed int64, n, dim int) ([][]float64, []float64) {
	vecs, weights := corpus(seed, n, dim)
	extra := rand.New(rand.NewSource(seed + 1))
	for i := range vecs {
		switch {
		case i%5 == 4:
			vecs[i] = nil
		case i%7 == 3:
			vecs[i] = vecs[i][:dim/2]
		case i%11 == 2:
			vecs[i] = append(vecs[i], extra.Float64(), -extra.Float64())
		}
	}
	return vecs, weights
}

func TestSelectMatchesReference(t *testing.T) {
	type build func(seed int64, n, dim int) ([][]float64, []float64)
	corpora := []struct {
		name string
		make build
	}{
		{"random", corpus},
		{"ties", tiedCorpus},
		{"ragged", raggedCorpus},
	}
	for _, c := range corpora {
		for _, seed := range []int64{1, 29} {
			vecs, weights := c.make(seed, 3000, 10)
			for _, w := range [][]float64{weights, nil} {
				for _, p := range []Params{
					{}, {Seed: 5}, {Target: 1}, {Target: 7, Seed: -3}, {Target: 100},
					{Target: 600, Seed: 11}, {Target: 2999}, {Target: 3000}, {Target: 5000},
				} {
					ks := []int{3} // k only matters through the default target
					if p.Target == 0 {
						ks = []int{0, 1, 16, 40}
					}
					for _, k := range ks {
						want := referenceSelect(vecs, w, k, p)
						got := Select(vecs, w, k, p)
						if !slices.Equal(got, want) {
							t.Fatalf("%s seed %d nil-weights %v %+v k %d: sketch selection differs from reference",
								c.name, seed, w == nil, p, k)
						}
					}
				}
			}
		}
	}
}

func TestSelectDegenerateMatchesReference(t *testing.T) {
	// Every vector empty: one bucket, dimension 0, no hyperplanes.
	empty := make([][]float64, 300)
	weights := make([]float64, len(empty))
	for i := range weights {
		weights[i] = float64(i % 13)
	}
	for _, target := range []int{1, 50, 299} {
		for _, w := range [][]float64{weights, nil} {
			if got, want := Select(empty, w, 4, Params{Target: target}), referenceSelect(empty, w, 4, Params{Target: target}); !slices.Equal(got, want) {
				t.Fatalf("empty vectors target %d: %v, want %v", target, got, want)
			}
		}
	}
	// An empty corpus selects nothing.
	if got := Select(nil, nil, 3, Params{}); len(got) != 0 {
		t.Fatalf("empty corpus selected %v", got)
	}
}

// TestSketchReuseAcrossTargets: one sketch serves every target of its
// width, each answer identical to a fresh build.
func TestSketchReuseAcrossTargets(t *testing.T) {
	vecs, weights := tiedCorpus(41, 5000, 12)
	for _, bits := range []int{5, 9, 12} {
		shared := buildSketch(vecs, weights, bits, 3)
		// Width bits serves targets in (2^(bits-2), 2^(bits-1)].
		lo, hi := 1<<(bits-2)+1, 1<<(bits-1)
		for _, target := range []int{lo, lo + 1, (lo + hi) / 2, hi - 1, hi} {
			if width(target) != bits {
				t.Fatalf("target %d has width %d, want %d", target, width(target), bits)
			}
			want := referenceSelect(vecs, weights, 0, Params{Target: target, Seed: 3})
			if got := shared.selectTarget(target); !slices.Equal(got, want) {
				t.Fatalf("width %d target %d: reused sketch differs from reference", bits, target)
			}
			if got := buildSketch(vecs, weights, bits, 3).selectTarget(target); !slices.Equal(got, want) {
				t.Fatalf("width %d target %d: fresh sketch differs from reference", bits, target)
			}
		}
	}
}

// TestFilterReuse: one Filter answers every (k, target) exactly as the
// reference does, whatever order its widths are first used in.
func TestFilterReuse(t *testing.T) {
	vecs, weights := raggedCorpus(43, 4000, 8)
	f := NewFilter(vecs, weights, 9)
	for _, q := range []struct{ k, target int }{
		{10, 0}, {1, 0}, {40, 0}, {10, 0}, {3, 70}, {3, 71}, {0, 4000}, {16, 0}, {40, 0},
	} {
		want := referenceSelect(vecs, weights, q.k, Params{Target: q.target, Seed: 9})
		if got := f.Select(q.k, q.target); !slices.Equal(got, want) {
			t.Fatalf("k %d target %d: reused filter differs from reference", q.k, q.target)
		}
	}
}
