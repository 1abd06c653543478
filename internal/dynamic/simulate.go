package dynamic

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/dataset"
)

// Env selects a Figure 1 perturbation environment.
type Env int

const (
	// VPerturbation resets a random element's weight uniformly in [0,1].
	VPerturbation Env = iota
	// EPerturbation resets a random pair's distance uniformly in [1,2]
	// (any [1,2] assignment preserves the metric property).
	EPerturbation
	// MPerturbation flips a fair coin between the two.
	MPerturbation
)

// String names the environment as in Section 7.3.
func (e Env) String() string {
	switch e {
	case VPerturbation:
		return "VPERTURBATION"
	case EPerturbation:
		return "EPERTURBATION"
	case MPerturbation:
		return "MPERTURBATION"
	default:
		return fmt.Sprintf("Env(%d)", int(e))
	}
}

// SimConfig parameterizes one Figure 1 series.
type SimConfig struct {
	// N is the universe size (the paper's Section 7.1 synthetic data; 50).
	N int
	// P is the solution cardinality.
	P int
	// Lambda is the trade-off parameter (Figure 1's x-axis).
	Lambda float64
	// Steps is the number of perturbation+update rounds per repetition (20).
	Steps int
	// Repetitions is the number of independent runs; the WORST ratio across
	// all repetitions and steps is reported (100 in the paper).
	Repetitions int
	// Env selects the perturbation environment.
	Env Env
	// Seed drives all randomness.
	Seed int64
	// UpdatesPerStep is how many oblivious updates follow each perturbation
	// (the paper applies exactly one).
	UpdatesPerStep int
	// Parallel fans repetitions out across CPUs.
	Parallel bool
}

// SimResult aggregates one simulation.
type SimResult struct {
	Config SimConfig
	// WorstRatio is max over all steps/repetitions of φ(OPT)/φ(S) (≥ 1).
	WorstRatio float64
	// MeanRatio averages the per-step ratios.
	MeanRatio float64
	// Swapped counts how many update invocations actually swapped.
	Swapped int
	// StepsMeasured is Steps × Repetitions.
	StepsMeasured int
}

// Simulate runs the Section 7.3 experiment: start from the Greedy B solution
// (a 2-approximation), then repeatedly perturb at random and apply the
// oblivious update rule, recording the exact approximation ratio after every
// step (OPT is recomputed by the exact solver — this is the expensive part).
func Simulate(cfg SimConfig) (*SimResult, error) {
	if cfg.N <= 0 || cfg.P <= 0 || cfg.P > cfg.N {
		return nil, fmt.Errorf("dynamic: Simulate: bad sizes N=%d P=%d", cfg.N, cfg.P)
	}
	if cfg.Steps <= 0 || cfg.Repetitions <= 0 {
		return nil, fmt.Errorf("dynamic: Simulate: need positive Steps and Repetitions")
	}
	if cfg.UpdatesPerStep <= 0 {
		cfg.UpdatesPerStep = 1
	}

	type repOut struct {
		worst, sum float64
		swapped    int
		steps      int
		err        error
	}
	results := make([]repOut, cfg.Repetitions)
	runRep := func(rep int) repOut {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*7919))
		inst := dataset.Synthetic(cfg.N, rng)
		obj, err := inst.Objective(cfg.Lambda)
		if err != nil {
			return repOut{err: err}
		}
		g, err := core.GreedyB(obj, cfg.P)
		if err != nil {
			return repOut{err: err}
		}
		sess, err := NewSession(inst.Weights, inst.Dist, cfg.Lambda, g.Members)
		if err != nil {
			return repOut{err: err}
		}
		out := repOut{worst: 1}
		for step := 0; step < cfg.Steps; step++ {
			if err := perturbOnce(sess, cfg.Env, rng); err != nil {
				return repOut{err: err}
			}
			for k := 0; k < cfg.UpdatesPerStep; k++ {
				swapped, _ := sess.ObliviousUpdate()
				if !swapped {
					break
				}
				out.swapped++
			}
			opt, err := core.Exact(sess.Objective(), cfg.P, nil)
			if err != nil {
				return repOut{err: err}
			}
			cur := sess.Value()
			ratio := 1.0
			if cur > 0 {
				ratio = opt.Value / cur
			} else if opt.Value > 0 {
				ratio = 2 // degenerate: empty-value solution vs positive OPT
			}
			if ratio > out.worst {
				out.worst = ratio
			}
			out.sum += ratio
			out.steps++
		}
		return out
	}

	if cfg.Parallel {
		workers := runtime.GOMAXPROCS(0)
		if workers > cfg.Repetitions {
			workers = cfg.Repetitions
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := range jobs {
					results[rep] = runRep(rep)
				}
			}()
		}
		for rep := 0; rep < cfg.Repetitions; rep++ {
			jobs <- rep
		}
		close(jobs)
		wg.Wait()
	} else {
		for rep := 0; rep < cfg.Repetitions; rep++ {
			results[rep] = runRep(rep)
		}
	}

	res := &SimResult{Config: cfg, WorstRatio: 1}
	var sum float64
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if r.worst > res.WorstRatio {
			res.WorstRatio = r.worst
		}
		sum += r.sum
		res.Swapped += r.swapped
		res.StepsMeasured += r.steps
	}
	if res.StepsMeasured > 0 {
		res.MeanRatio = sum / float64(res.StepsMeasured)
	}
	return res, nil
}

// perturbOnce applies one random perturbation of the environment's type.
func perturbOnce(sess *Session, env Env, rng *rand.Rand) error {
	kind := env
	if env == MPerturbation {
		if rng.Intn(2) == 0 {
			kind = VPerturbation
		} else {
			kind = EPerturbation
		}
	}
	n := sess.Objective().N()
	switch kind {
	case VPerturbation:
		u := rng.Intn(n)
		_, err := sess.SetWeight(u, rng.Float64())
		return err
	case EPerturbation:
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		_, err := sess.SetDistance(u, v, 1+rng.Float64())
		return err
	default:
		return fmt.Errorf("dynamic: unknown environment %v", env)
	}
}
