// Package sandwich implements the Sandwich Approximation strategy of §6.4:
// when the Com-IC objective is not submodular (general mutual
// complementarity), maximize submodular lower/upper bound functions obtained
// by perturbing one GAP, then keep whichever candidate seed set scores best
// under the *original* objective (Eq. 5). Theorem 9 turns the ratio
// σ(S_ν)/ν(S_ν) into a data-dependent approximation factor, reported in
// Table 8 of the paper.
package sandwich

import (
	"fmt"
	"slices"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/rrset"
	"comic/internal/seeds"
)

// SelfBounds returns the lower (μ) and upper (ν) bound GAPs for SelfInfMax
// under mutual complementarity: μ lowers q_{B|A} to q_{B|∅} and ν raises
// q_{B|∅} to q_{B|A}; both make B indifferent to A, the setting where RR-SIM
// is exact (Theorem 7). Monotonicity of σ_A in each GAP (Theorem 10)
// guarantees μ ≤ σ ≤ ν pointwise.
func SelfBounds(gap core.GAP) (lower, upper core.GAP, err error) {
	if !gap.MutuallyComplementary() {
		return gap, gap, fmt.Errorf("sandwich: GAPs must be in Q+, got %+v", gap)
	}
	lower = gap
	lower.QBA = gap.QB0
	upper = gap
	upper.QB0 = gap.QBA
	return lower, upper, nil
}

// CompUpper returns the upper-bound GAP for CompInfMax: q_{B|A} raised to 1,
// the setting where RR-CIM is exact (Theorem 8). No useful submodular lower
// bound is known for CompInfMax (§6.4).
func CompUpper(gap core.GAP) (core.GAP, error) {
	if !gap.MutuallyComplementary() {
		return gap, fmt.Errorf("sandwich: GAPs must be in Q+, got %+v", gap)
	}
	upper := gap
	upper.QBA = 1
	return upper, nil
}

// Config tunes the sandwich solvers.
type Config struct {
	// K is the seed-set cardinality constraint.
	K int
	// TIM configures GeneralTIM for the bound subproblems.
	TIM rrset.Options
	// EvalRuns is the Monte-Carlo budget for scoring each candidate under
	// the original GAPs (paper: 10K; default 10000).
	EvalRuns int
	// Seed drives all randomness.
	Seed uint64
	// UseSIMPlus selects RR-SIM+ over RR-SIM for SelfInfMax (default on
	// via NewConfig; the two produce identical sets, RR-SIM+ is faster).
	UseSIMPlus bool
	// IncludeGreedy additionally runs the CELF Monte-Carlo greedy on the
	// original (possibly non-submodular) objective, the S_σ candidate of
	// Eq. 5. Expensive; off by default.
	IncludeGreedy bool
	// GreedyRuns is the MC budget per greedy evaluation (default 200).
	GreedyRuns int
	// Collections, when non-nil, supplies the RR-set collections of the
	// bound subproblems (typically a shared cache such as
	// internal/server.Index). nil builds each collection directly. The
	// selected seeds are identical either way; only where the RR sets
	// come from changes.
	Collections rrset.CollectionProvider
	// GraphID names the graph in collection cache keys. Empty falls back
	// to graph pointer identity (collision-free, but cache hits then
	// require the same *graph.Graph instance). Ignored when Collections
	// is nil.
	GraphID string
}

// NewConfig returns a Config with the paper's defaults.
func NewConfig(k int) Config {
	return Config{K: k, EvalRuns: 10000, UseSIMPlus: true, GreedyRuns: 200}
}

func (c Config) withDefaults() Config {
	if c.EvalRuns <= 0 {
		c.EvalRuns = 10000
	}
	if c.GreedyRuns <= 0 {
		c.GreedyRuns = 200
	}
	return c
}

// Candidate is one seed set considered by the sandwich selection.
type Candidate struct {
	Name      string // "lower", "upper", "greedy", or "exact"
	Seeds     []int32
	Objective float64 // MC estimate under the ORIGINAL GAPs
	Stats     *rrset.Stats
}

// Result is the outcome of a sandwich solve.
type Result struct {
	Seeds      []int32
	Objective  float64
	Chosen     string
	Candidates []Candidate
	// UpperRatio is σ(S_ν)/ν(S_ν), the computable part of Theorem 9's
	// data-dependent factor (Table 8). 0 when no upper candidate ran.
	UpperRatio float64
}

func pickBest(cands []Candidate) ([]int32, float64, string) {
	bestIdx := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Objective > cands[bestIdx].Objective {
			bestIdx = i
		}
	}
	c := cands[bestIdx]
	return c.Seeds, c.Objective, c.Name
}

// scoreOnce wraps a deterministic objective so that each distinct seed
// list is scored at most once per solve: candidates that select the same
// list (lower and upper often agree at small k) share one Monte-Carlo
// estimate, which is exactly the value a second estimate would return.
func scoreOnce(f func([]int32) float64) func([]int32) float64 {
	var seen [][]int32
	var vals []float64
	return func(s []int32) float64 {
		for i, t := range seen {
			if slices.Equal(s, t) {
				return vals[i]
			}
		}
		v := f(s)
		seen = append(seen, s)
		vals = append(vals, v)
		return v
	}
}

// selfKind maps the UseSIMPlus switch to the RR-SIM variant to request.
func (c Config) selfKind() rrset.Kind {
	if c.UseSIMPlus {
		return rrset.KindSIMPlus
	}
	return rrset.KindSIM
}

// selectSeeds resolves one bound subproblem's RR-set collection through the
// configured provider (or a direct build when none is set) and selects the
// top-K seeds, routing through the provider's memoized seed ordering when it
// keeps one (rrset.SeedSelector). The seeds are identical either way.
func (c Config) selectSeeds(g *graph.Graph, kind rrset.Kind, gap core.GAP, opposite []int32, seed uint64) ([]int32, *rrset.Stats, error) {
	return rrset.ObtainSeeds(c.Collections, rrset.CollectionRequest{
		GraphID:  c.GraphID,
		Graph:    g,
		Kind:     kind,
		GAP:      gap,
		Opposite: opposite,
		K:        c.K,
		Opts:     c.TIM,
		Seed:     seed,
	}, g.N(), c.K)
}

// SolveSelfInfMax solves Problem 1 (SelfInfMax) under general mutual
// complementarity: GeneralTIM on the submodular bound instances, candidate
// selection by MC under the original GAPs. When B is already indifferent to
// A the objective is submodular (Theorem 4) and a single exact run suffices.
func SolveSelfInfMax(g *graph.Graph, gap core.GAP, seedsB []int32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if !gap.MutuallyComplementary() {
		return nil, fmt.Errorf("sandwich: SelfInfMax requires Q+ GAPs, got %+v", gap)
	}
	est := montecarlo.New(g, gap)
	evalObjective := scoreOnce(func(s []int32) float64 {
		return est.SpreadA(s, seedsB, cfg.EvalRuns, cfg.Seed^0xe7a1)
	})

	res := &Result{}
	if gap.BIndifferentToA() {
		sel, st, err := cfg.selectSeeds(g, cfg.selfKind(), gap, seedsB, cfg.Seed)
		if err != nil {
			return nil, err
		}
		c := Candidate{Name: "exact", Seeds: sel, Objective: evalObjective(sel), Stats: st}
		res.Candidates = []Candidate{c}
		res.Seeds, res.Objective, res.Chosen = c.Seeds, c.Objective, c.Name
		res.UpperRatio = 1
		return res, nil
	}

	lowerGAP, upperGAP, err := SelfBounds(gap)
	if err != nil {
		return nil, err
	}
	// The two bound subproblems are independent (separate GAPs, separate
	// master-seed streams), so overlap them end to end — build and seed
	// selection both: on a cold cache this halves the dominant cost of the
	// solve on multi-core machines, and the result is identical either way.
	// A panic on the upper goroutine is re-raised on the caller's stack, so
	// callers' recover boundaries keep working as they did when the work ran
	// inline.
	var upperSeeds []int32
	var upperStats *rrset.Stats
	var upperErr error
	var upperPanic any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { upperPanic = recover() }()
		upperSeeds, upperStats, upperErr = cfg.selectSeeds(g, cfg.selfKind(), upperGAP, seedsB, cfg.Seed+1)
	}()
	lowerSeeds, lowerStats, err := cfg.selectSeeds(g, cfg.selfKind(), lowerGAP, seedsB, cfg.Seed)
	<-done
	if upperPanic != nil {
		panic(upperPanic)
	}
	if err != nil {
		return nil, err
	}
	if upperErr != nil {
		return nil, upperErr
	}

	res.Candidates = []Candidate{
		{Name: "lower", Seeds: lowerSeeds, Objective: evalObjective(lowerSeeds), Stats: lowerStats},
		{Name: "upper", Seeds: upperSeeds, Objective: evalObjective(upperSeeds), Stats: upperStats},
	}
	if cfg.IncludeGreedy {
		f := seeds.SelfInfMaxObjective(g, gap, seedsB, cfg.GreedyRuns, cfg.Seed^0x9eedd)
		gs := seeds.Greedy(g, f, cfg.K, nil)
		res.Candidates = append(res.Candidates, Candidate{
			Name: "greedy", Seeds: gs, Objective: evalObjective(gs),
		})
	}
	res.Seeds, res.Objective, res.Chosen = pickBest(res.Candidates)

	// σ(S_ν)/ν(S_ν): numerator under original GAPs, denominator under ν.
	upperEst := montecarlo.New(g, upperGAP)
	nu := upperEst.SpreadA(upperSeeds, seedsB, cfg.EvalRuns, cfg.Seed^0xfaceb)
	if nu > 0 {
		res.UpperRatio = res.Candidates[1].Objective / nu
	}
	return res, nil
}

// SolveCompInfMax solves Problem 2 (CompInfMax): GeneralTIM with RR-CIM on
// the q_{B|A}→1 upper bound, candidates scored by the paired-world boost
// estimator under the original GAPs.
func SolveCompInfMax(g *graph.Graph, gap core.GAP, seedsA []int32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if !gap.MutuallyComplementary() {
		return nil, fmt.Errorf("sandwich: CompInfMax requires Q+ GAPs, got %+v", gap)
	}
	est := montecarlo.New(g, gap)
	evalBoost := scoreOnce(func(s []int32) float64 {
		if len(s) == 0 {
			return 0
		}
		b, _ := est.BoostPaired(seedsA, s, cfg.EvalRuns, cfg.Seed^0xe7a1)
		return b
	})

	upperGAP, err := CompUpper(gap)
	if err != nil {
		return nil, err
	}
	upperSeeds, upperStats, err := cfg.selectSeeds(g, rrset.KindCIM, upperGAP, seedsA, cfg.Seed)
	if err != nil {
		return nil, err
	}

	res := &Result{Candidates: []Candidate{
		{Name: "upper", Seeds: upperSeeds, Objective: evalBoost(upperSeeds), Stats: upperStats},
	}}
	if cfg.IncludeGreedy {
		f := seeds.CompInfMaxObjective(g, gap, seedsA, cfg.GreedyRuns, cfg.Seed^0x9eedd)
		gs := seeds.Greedy(g, f, cfg.K, nil)
		res.Candidates = append(res.Candidates, Candidate{
			Name: "greedy", Seeds: gs, Objective: evalBoost(gs),
		})
	}
	res.Seeds, res.Objective, res.Chosen = pickBest(res.Candidates)

	upperEst := montecarlo.New(g, upperGAP)
	nu, _ := upperEst.BoostPaired(seedsA, upperSeeds, cfg.EvalRuns, cfg.Seed^0xfaceb)
	if nu > 0 {
		res.UpperRatio = res.Candidates[0].Objective / nu
	}
	return res, nil
}
