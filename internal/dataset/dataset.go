// Package dataset provides the workloads of the paper's Section 7
// evaluation: the synthetic generator of Section 7.1 (element values drawn
// uniformly from [0,1], pairwise distances uniformly from [1,2] — always a
// metric) and a LETOR-like generator standing in for the proprietary LETOR
// learning-to-rank corpus of Section 7.2 (per-query documents with integer
// relevance grades 0–5 and feature vectors inducing cosine distances).
//
// The LETOR substitution is documented in DESIGN.md: the paper consumes only
// (a) integer relevance as modular weight, (b) feature-vector cosine
// distances, and (c) per-query top-k grouping; the generator reproduces all
// three, including the topic-cluster geometry of real retrieval results.
package dataset

import (
	"fmt"
	"math/rand"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// Instance is a weighted metric instance of max-sum diversification.
type Instance struct {
	// Weights holds f(v) per element (the modular quality).
	Weights []float64
	// Dist is the pairwise metric.
	Dist *metric.Dense
}

// Synthetic draws the Section 7.1 workload: n elements with weights U[0,1]
// and distances U[1,2]. Any symmetric matrix with entries in [1,2] satisfies
// the triangle inequality, which is exactly why the paper samples there (it
// is also the {1,2}-metric regime of its hardness argument).
func Synthetic(n int, rng *rand.Rand) *Instance {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	d := metric.NewDense(n)
	d.Fill(func(i, j int) float64 { return 1 + rng.Float64() })
	return &Instance{Weights: w, Dist: d}
}

// N returns the instance size.
func (in *Instance) N() int { return len(in.Weights) }

// Objective builds the max-sum diversification objective f(S) + λ·d(S) with
// modular f over this instance. The returned objective shares the instance's
// distance matrix (but copies weights into the Modular), so metric
// perturbations are visible to it.
func (in *Instance) Objective(lambda float64) (*core.Objective, error) {
	mod, err := setfunc.NewModular(in.Weights)
	if err != nil {
		return nil, err
	}
	return core.NewObjective(mod, lambda, in.Dist)
}

// Validate re-checks that the instance is well-formed (finite non-negative
// weights, metric distances).
func (in *Instance) Validate() error {
	if in.Dist.Len() != len(in.Weights) {
		return fmt.Errorf("dataset: %d weights but %d points", len(in.Weights), in.Dist.Len())
	}
	if _, err := setfunc.NewModular(in.Weights); err != nil {
		return err
	}
	return metric.Validate(in.Dist, 1e-9)
}
