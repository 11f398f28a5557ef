package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"comic"
	"comic/internal/experiments"
	"comic/internal/server"
)

// batchBenchRecord is the machine-readable output of the batch experiment:
// one k-sweep (k = 1..K, fixed θ, one master seed) submitted as a single
// /v1/batch request versus the same sweep as K sequential requests. Both
// share one RR-set build through the index — the cache key drops k under
// fixed θ — so the record captures the per-request overhead the batch
// amortizes, plus the build/selection split.
type batchBenchRecord struct {
	benchHeader
	SweepK     int `json:"sweepK"`
	FixedTheta int `json:"fixedTheta"`
	// BatchNs is the wall time of the one batch request; SequentialNs the
	// summed wall time of the K sequential requests (fresh server each, so
	// both sweeps start cold).
	BatchNs      int64 `json:"batchNs"`
	SequentialNs int64 `json:"sequentialNs"`
	// Builds/Hits are the RR-index misses/hits after each sweep: the
	// amortization contract is Builds == 1 for a B-indifferent GAP.
	BatchBuilds      int64   `json:"batchBuilds"`
	BatchHits        int64   `json:"batchHits"`
	SequentialBuilds int64   `json:"sequentialBuilds"`
	SequentialHits   int64   `json:"sequentialHits"`
	Seeds            []int32 `json:"seeds"` // the k = SweepK selection
}

// runBatchBench measures the k-sweep amortization at the HTTP layer,
// mirroring what a campaign-planning client does: sweep the seed budget
// over one graph/GAP/opposite configuration and compare spreads.
func runBatchBench(cfg experiments.Config) (*batchBenchRecord, error) {
	s, err := newBenchSetup("batch", cfg, 10)
	if err != nil {
		return nil, err
	}
	// Make B indifferent to A so each solve needs exactly one collection
	// (the RR-SIM+ exact path): the sweep then costs one cold build plus
	// sweepK−1 warm selections, the contract the batch endpoint exists for.
	gap := s.d.GAP
	gap.QB0 = gap.QBA
	gapJSON := fmt.Sprintf(`{"qa0":%g,"qab":%g,"qb0":%g,"qba":%g}`, gap.QA0, gap.QAB, gap.QB0, gap.QBA)

	queries := make([]string, s.k)
	for k := 1; k <= s.k; k++ {
		queries[k-1] = fmt.Sprintf(
			`{"op":"selfinfmax","dataset":%q,"gap":%s,"k":%d,"seedsB":[1,2,3],"fixedTheta":%d,"evalRuns":%d,"seed":%d}`,
			s.Dataset, gapJSON, k, s.theta, s.mc, cfg.Seed)
	}

	newServer := func() (*server.Server, error) {
		return server.New(server.Config{
			Datasets: map[string]*comic.Dataset{s.Dataset: s.d},
			MaxK:     max(500, s.k),
		})
	}
	rec := &batchBenchRecord{benchHeader: s.benchHeader, SweepK: s.k, FixedTheta: s.theta}

	// One /v1/batch request, cold server.
	sBatch, err := newServer()
	if err != nil {
		return nil, err
	}
	defer sBatch.Close()
	t0 := time.Now()
	body, err := post(sBatch, "/v1/batch", `{"queries":[`+strings.Join(queries, ",")+`]}`)
	if err != nil {
		return nil, err
	}
	rec.BatchNs = time.Since(t0).Nanoseconds()
	var batchOut struct {
		Results []struct {
			Status int             `json:"status"`
			Error  string          `json:"error"`
			Result solveRespRecord `json:"result"`
		} `json:"results"`
	}
	if uerr := json.Unmarshal(body, &batchOut); uerr != nil {
		return nil, uerr
	}
	for i, r := range batchOut.Results {
		if r.Status != http.StatusOK {
			return nil, fmt.Errorf("batch query %d failed: %s", i, r.Error)
		}
	}
	st := sBatch.Index().Stats()
	rec.BatchBuilds, rec.BatchHits = st.Misses, st.Hits
	rec.Seeds = batchOut.Results[s.k-1].Result.Seeds

	// The same sweep as sequential requests, fresh cold server.
	sSeq, err := newServer()
	if err != nil {
		return nil, err
	}
	defer sSeq.Close()
	var seqLast []byte
	t1 := time.Now()
	for _, q := range queries {
		if seqLast, err = post(sSeq, "/v1/selfinfmax", "{"+strings.TrimPrefix(q, `{"op":"selfinfmax",`)); err != nil {
			return nil, err
		}
	}
	rec.SequentialNs = time.Since(t1).Nanoseconds()
	st = sSeq.Index().Stats()
	rec.SequentialBuilds, rec.SequentialHits = st.Misses, st.Hits

	// Determinism parity: the k = sweepK selection must be identical on
	// both paths.
	var seq solveRespRecord
	if err := json.Unmarshal(seqLast, &seq); err != nil {
		return nil, err
	}
	if !slices.Equal(seq.Seeds, rec.Seeds) {
		return nil, fmt.Errorf("batch seeds %v diverged from sequential seeds %v", rec.Seeds, seq.Seeds)
	}
	return rec, nil
}

func (r *batchBenchRecord) summary() string {
	return fmt.Sprintf("batch k-sweep benchmark: %s scale %g, k=1..%d, theta %d, seed %d\n",
		r.Dataset, r.Scale, r.SweepK, r.FixedTheta, r.Seed) +
		fmt.Sprintf("  one batch request: %v (%d builds, %d warm hits)\n",
			time.Duration(r.BatchNs), r.BatchBuilds, r.BatchHits) +
		fmt.Sprintf("  %d sequential requests: %v (%d builds, %d warm hits)\n",
			r.SweepK, time.Duration(r.SequentialNs), r.SequentialBuilds, r.SequentialHits) +
		fmt.Sprintf("  amortization: %.2fx\n", float64(r.SequentialNs)/float64(r.BatchNs)) +
		fmt.Sprintf("  seeds(k=%d) %v\n", r.SweepK, r.Seeds)
}
