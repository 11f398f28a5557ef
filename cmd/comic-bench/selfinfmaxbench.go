package main

import (
	"fmt"
	"time"

	"comic/internal/experiments"
)

// benchRecord is the machine-readable output of the selfinfmax experiment:
// one line of the serving path's performance trajectory, written as
// BENCH_selfinfmax.json by CI so regressions show up PR-over-PR.
type benchRecord struct {
	benchHeader
	K          int     `json:"k"`
	Epsilon    float64 `json:"epsilon"`
	FixedTheta int     `json:"fixedTheta,omitempty"`
	// Theta sums the RR-set budgets over the sandwich candidates; the
	// phase durations sum the same way (a non-B-indifferent GAP needs a
	// lower and an upper collection).
	Theta    int   `json:"theta"`
	KPTNs    int64 `json:"kptNs"`
	GenNs    int64 `json:"genNs"`
	SelectNs int64 `json:"selectNs"`
	// CollectionBytes is the exact resident size of the built collections
	// (Collection.Bytes over the shared index).
	CollectionBytes int64 `json:"collectionBytes"`
	// ColdNs is one solve against an empty index (build + select + MC
	// evaluation); WarmNs is the same solve answered from the warm index.
	// WarmNs still times the full round trip — Monte-Carlo evaluation
	// included — so SelectWarmNs separates out the seed-selection part of
	// the warm solve (the sum of the warm candidates' SelectDuration), the
	// number the memoized orderings actually drive to sub-millisecond.
	ColdNs       int64   `json:"coldNs"`
	WarmNs       int64   `json:"warmNs"`
	SelectWarmNs int64   `json:"selectWarmNs"`
	Seeds        []int32 `json:"seeds"`
}

// runSelfInfMaxBench times one cold and one warm SelfInfMax solve through
// the RR-set index, mirroring what the query server does per request.
func runSelfInfMaxBench(cfg experiments.Config) (*benchRecord, error) {
	s, err := newBenchSetup("selfinfmax", cfg, 10)
	if err != nil {
		return nil, err
	}
	cw, err := solveColdWarm(s, cfg)
	if err != nil {
		return nil, err
	}
	rec := &benchRecord{
		benchHeader:     s.benchHeader,
		K:               s.k,
		Epsilon:         cfg.Epsilon,
		FixedTheta:      cfg.FixedTheta,
		CollectionBytes: cw.idx.Stats().ResidentBytes,
		ColdNs:          cw.coldNs,
		WarmNs:          cw.warmNs,
		SelectWarmNs:    cw.warmSelectNs,
		Seeds:           cw.cold.Seeds,
	}
	for _, c := range cw.cold.Candidates {
		if c.Stats == nil {
			continue
		}
		rec.Theta += c.Stats.Theta
		rec.KPTNs += c.Stats.KPTDuration.Nanoseconds()
		rec.GenNs += c.Stats.GenDuration.Nanoseconds()
		rec.SelectNs += c.Stats.SelectDuration.Nanoseconds()
	}
	return rec, nil
}

func (r *benchRecord) summary() string {
	return fmt.Sprintf("selfinfmax benchmark: %s scale %g, k=%d, seed %d\n", r.Dataset, r.Scale, r.K, r.Seed) +
		fmt.Sprintf("  theta %d across candidates; kpt %v, gen %v, select %v\n",
			r.Theta, time.Duration(r.KPTNs), time.Duration(r.GenNs), time.Duration(r.SelectNs)) +
		fmt.Sprintf("  resident collections: %d bytes (exact)\n", r.CollectionBytes) +
		fmt.Sprintf("  cold solve %v, warm solve %v (%.1fx); warm selection alone %v\n",
			time.Duration(r.ColdNs), time.Duration(r.WarmNs), float64(r.ColdNs)/float64(r.WarmNs),
			time.Duration(r.SelectWarmNs)) +
		fmt.Sprintf("  seeds %v\n", r.Seeds)
}
