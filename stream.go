package maxsumdiv

import (
	"fmt"
	"math"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/stream"
)

// Stream maintains a diverse, high-quality window of size p over an
// unbounded item stream (the incremental setting of the paper's Section 2
// related work), applying the Section 6 single-swap rule to each arrival.
// Memory is O(p²), independent of stream length.
type Stream struct {
	inner *stream.Diversifier
}

// StreamDistance measures the distance between two stream items; it must be
// symmetric and non-negative.
type StreamDistance func(a, b Item) float64

// EuclideanStreamDistance is the ℓ2 distance over item vectors.
func EuclideanStreamDistance(a, b Item) float64 {
	var s float64
	for k := range a.Vector {
		d := a.Vector[k] - b.Vector[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// CosineStreamDistance is 1 − cos(a, b) over item vectors (zero vectors are
// at distance 1 from everything).
func CosineStreamDistance(a, b Item) float64 {
	var dot, na, nb float64
	for k := range a.Vector {
		dot += a.Vector[k] * b.Vector[k]
		na += a.Vector[k] * a.Vector[k]
		nb += b.Vector[k] * b.Vector[k]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	c := dot / math.Sqrt(na*nb)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return 1 - c
}

// StreamOption configures NewStream.
type StreamOption func(*streamCfg)

type streamCfg struct {
	parallelism    int
	parallelismSet bool
}

// WithStreamParallelism shards each offer's eviction scan across k worker
// goroutines — the same scan engine the offline solvers use. As with
// WithDefaultParallelism, k ≤ 0 selects GOMAXPROCS and k = 1 forces serial;
// omitting the option entirely also stays serial. Only worthwhile for
// large windows; decisions are identical at every setting.
func WithStreamParallelism(k int) StreamOption {
	return func(c *streamCfg) {
		c.parallelism = k
		c.parallelismSet = true
	}
}

// NewStream builds a streaming diversifier with window size p and trade-off
// λ.
func NewStream(p int, lambda float64, dist StreamDistance, opts ...StreamOption) (*Stream, error) {
	if dist == nil {
		return nil, fmt.Errorf("maxsumdiv: nil stream distance")
	}
	var cfg streamCfg
	for _, o := range opts {
		o(&cfg)
	}
	var innerOpts []stream.Option
	if cfg.parallelismSet && cfg.parallelism != 1 {
		innerOpts = append(innerOpts, stream.WithPool(engine.New(cfg.parallelism)))
	}
	inner, err := stream.New(p, lambda, func(a, b stream.Item) float64 {
		return dist(fromStreamItem(a), fromStreamItem(b))
	}, innerOpts...)
	if err != nil {
		return nil, err
	}
	return &Stream{inner: inner}, nil
}

func toStreamItem(it Item) stream.Item {
	return stream.Item{ID: it.ID, Weight: it.Weight, Vec: it.Vector}
}

func fromStreamItem(it stream.Item) Item {
	return Item{ID: it.ID, Weight: it.Weight, Vector: it.Vec}
}

// Offer processes one arriving item: admitted while the window is filling,
// then swapped in if the best single swap improves φ. Returns whether the
// item was kept and the evicted item, if any.
func (s *Stream) Offer(it Item) (kept bool, evicted *Item, err error) {
	k, ev, err := s.inner.Offer(toStreamItem(it))
	if err != nil {
		return false, nil, err
	}
	if ev == nil {
		return k, nil, nil
	}
	out := fromStreamItem(*ev)
	return k, &out, nil
}

// Items returns the current window.
func (s *Stream) Items() []Item {
	inner := s.inner.Items()
	out := make([]Item, len(inner))
	for i, it := range inner {
		out[i] = fromStreamItem(it)
	}
	return out
}

// Value returns φ of the current window.
func (s *Stream) Value() float64 { return s.inner.Value() }

// Quality returns the window's summed weight.
func (s *Stream) Quality() float64 { return s.inner.Quality() }

// Dispersion returns the window's pairwise distance sum.
func (s *Stream) Dispersion() float64 { return s.inner.Dispersion() }

// Len returns the current window size.
func (s *Stream) Len() int { return s.inner.Len() }

// Stats reports items seen, swaps applied, and offers rejected.
func (s *Stream) Stats() (seen, swaps, rejected int) { return s.inner.Stats() }
