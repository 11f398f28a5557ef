package main

import (
	"fmt"
	"slices"
	"time"

	"comic"
	"comic/internal/experiments"
)

// warmPathRecord is the machine-readable output of the warmpath experiment:
// the memoized-ordering trajectory line. It splits the warm solve into the
// parts the memo changes — the one-time CELF ordering build on the cold
// solve versus the O(k) prefix slice every warm solve pays — and pins the
// deterministic outputs (θ, seeds, order bytes, hit/miss counts, the full
// k-sweep's selections) so a selection or accounting change can never land
// silently. Timing keys end in "Ns" and warn-only under -check.
type warmPathRecord struct {
	benchHeader
	K       int     `json:"k"`
	Epsilon float64 `json:"epsilon"`
	// Theta sums the candidates' RR-set budgets on the derived-θ solve —
	// the same configuration BENCH_selfinfmax pins.
	Theta int `json:"theta"`
	// ColdNs is the full cold solve (KPT + generation + ordering + MC
	// evaluation). OrderBuildNs is the cold solve's selection time alone,
	// dominated by the one-time full-depth CELF ordering build.
	// WarmSelectNs is the warm solve's selection time: pure memo slices,
	// the sub-millisecond path.
	ColdNs       int64 `json:"coldNs"`
	OrderBuildNs int64 `json:"orderBuildNs"`
	WarmSelectNs int64 `json:"warmSelectNs"`
	// Exact resident footprint of the memoized orderings, and the order
	// hit/miss counters after the cold+warm pair (a strict-Q+ GAP needs a
	// lower and an upper collection, so two of each on the cold solve).
	OrderBytes  int64   `json:"orderBytes"`
	OrderMisses int64   `json:"orderMisses"`
	OrderHits   int64   `json:"orderHits"`
	Seeds       []int32 `json:"seeds"`
	// The fixed-θ k-sweep against a fresh index: one collection build, one
	// ordering build, every k answered as a prefix of the same ordering.
	SweepFixedTheta  int       `json:"sweepFixedTheta"`
	SweepBuilds      int64     `json:"sweepBuilds"`
	SweepOrderMisses int64     `json:"sweepOrderMisses"`
	SweepOrderHits   int64     `json:"sweepOrderHits"`
	SweepSeeds       [][]int32 `json:"sweepSeeds"`
}

// runWarmPathBench measures both warm-path shapes the memoized orderings
// serve: the repeated identical solve (derived θ, the BENCH_selfinfmax
// configuration) and the k-sweep under a fixed θ (the BENCH_batch shape),
// asserting the CELF prefix-stability contract across the sweep.
func runWarmPathBench(cfg experiments.Config) (*warmPathRecord, error) {
	s, err := newBenchSetup("warmpath", cfg, 10)
	if err != nil {
		return nil, err
	}

	// Part 1: identical solve twice, derived θ, shared index.
	cw, err := solveColdWarm(s, cfg)
	if err != nil {
		return nil, err
	}
	st := cw.idx.Stats()
	rec := &warmPathRecord{
		benchHeader:  s.benchHeader,
		K:            s.k,
		Epsilon:      cfg.Epsilon,
		ColdNs:       cw.coldNs,
		WarmSelectNs: cw.warmSelectNs,
		OrderBytes:   st.OrderBytes,
		OrderMisses:  st.OrderMisses,
		OrderHits:    st.OrderHits,
		Seeds:        cw.cold.Seeds,
	}
	for _, c := range cw.cold.Candidates {
		if c.Stats != nil {
			rec.Theta += c.Stats.Theta
			rec.OrderBuildNs += c.Stats.SelectDuration.Nanoseconds()
		}
	}
	if st.OrderMisses != st.Misses {
		return nil, fmt.Errorf("cold solve built %d collections but %d orderings", st.Misses, st.OrderMisses)
	}

	// Part 2: the k-sweep, fixed θ, B indifferent to A so every k shares
	// the one collection — and therefore the one memoized ordering.
	rec.SweepFixedTheta = s.theta
	gap := s.d.GAP
	gap.QB0 = gap.QBA
	sweepIdx := comic.NewRRIndex(0)
	sweepOpts := comic.Options{
		FixedTheta: s.theta,
		MaxTheta:   cfg.MaxTheta,
		EvalRuns:   s.mc,
		Seed:       cfg.Seed,
		Index:      sweepIdx,
		GraphID:    s.Dataset,
	}
	seedsB := comic.HighDegreeSeeds(s.d.Graph, s.opp)
	for kk := 1; kk <= s.k; kk++ {
		res, err := comic.SelfInfMax(s.d.Graph, gap, seedsB, kk, sweepOpts)
		if err != nil {
			return nil, fmt.Errorf("sweep k=%d: %w", kk, err)
		}
		rec.SweepSeeds = append(rec.SweepSeeds, res.Seeds)
	}
	// CELF prefix stability, observed end to end: each budget's selection
	// extends the previous one.
	for kk := 1; kk < s.k; kk++ {
		prev, cur := rec.SweepSeeds[kk-1], rec.SweepSeeds[kk]
		if !slices.Equal(prev, cur[:len(prev)]) {
			return nil, fmt.Errorf("sweep k=%d seeds %v are not a prefix of k=%d seeds %v",
				kk, prev, kk+1, cur)
		}
	}
	sst := sweepIdx.Stats()
	rec.SweepBuilds = sst.Misses
	rec.SweepOrderMisses = sst.OrderMisses
	rec.SweepOrderHits = sst.OrderHits
	if sst.Misses != 1 || sst.OrderMisses != 1 {
		return nil, fmt.Errorf("k-sweep amortization broke: %d builds, %d ordering builds (want 1/1)",
			sst.Misses, sst.OrderMisses)
	}
	return rec, nil
}

func (r *warmPathRecord) summary() string {
	out := fmt.Sprintf("warmpath benchmark: %s scale %g, k=%d, seed %d\n", r.Dataset, r.Scale, r.K, r.Seed) +
		fmt.Sprintf("  theta %d across candidates; cold solve %v\n", r.Theta, time.Duration(r.ColdNs)) +
		fmt.Sprintf("  ordering build (cold select) %v -> warm selection %v\n",
			time.Duration(r.OrderBuildNs), time.Duration(r.WarmSelectNs))
	if r.WarmSelectNs >= int64(time.Millisecond) {
		out += "  WARNING: warm selection above 1ms\n"
	}
	return out + fmt.Sprintf("  memoized orderings: %d bytes, %d misses, %d hits\n",
		r.OrderBytes, r.OrderMisses, r.OrderHits) +
		fmt.Sprintf("  seeds %v\n", r.Seeds) +
		fmt.Sprintf("  k-sweep (theta %d): %d build(s), %d ordering build(s), %d warm slices; seeds(k=%d) %v\n",
			r.SweepFixedTheta, r.SweepBuilds, r.SweepOrderMisses, r.SweepOrderHits,
			r.K, r.SweepSeeds[len(r.SweepSeeds)-1])
}
