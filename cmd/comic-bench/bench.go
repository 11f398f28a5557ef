package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"time"

	"comic"
	"comic/internal/experiments"
	"comic/internal/server"
)

// benchHeader opens every trajectory record: which experiment ran, on
// which dataset at which scale, under which master seed.
type benchHeader struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
}

// benchSetup is what every trajectory experiment derives from the config
// the same way: the dataset (the first -datasets name, Flixster by
// default, generated with construction seed 1) and the budgets, each
// falling back to its default when the flag is unset.
type benchSetup struct {
	benchHeader
	d *comic.Dataset
	// k is the seed budget, opp the opposite seed set size, theta the
	// fixed RR-set budget of the fixed-θ experiments (20000 when -theta is
	// unset; the derived-θ solves read cfg.FixedTheta directly), and mc the
	// Monte-Carlo evaluation runs.
	k, opp, theta, mc int
}

func newBenchSetup(exp string, cfg experiments.Config, defaultK int) (*benchSetup, error) {
	name := "Flixster"
	if len(cfg.DatasetNames) > 0 {
		name = cfg.DatasetNames[0]
	}
	d, err := comic.DatasetByName(name, cfg.Scale, 1)
	if err != nil {
		return nil, err
	}
	orDefault := func(v, def int) int {
		if v <= 0 {
			return def
		}
		return v
	}
	return &benchSetup{
		benchHeader: benchHeader{Experiment: exp, Dataset: name, Scale: cfg.Scale, Seed: cfg.Seed},
		d:           d,
		k:           orDefault(cfg.K, defaultK),
		opp:         orDefault(cfg.OppositeSize, 10),
		theta:       orDefault(cfg.FixedTheta, 20000),
		mc:          orDefault(cfg.MCRuns, 1000),
	}, nil
}

// coldWarm is the selfinfmax configuration — derived θ, the opp
// highest-degree nodes as B's seeds — solved twice through one shared
// index: cold against the empty index, then warm.
type coldWarm struct {
	idx            *comic.RRIndex
	cold           *comic.SeedResult
	coldNs, warmNs int64
	// warmSelectNs sums the warm candidates' selection time, the part of
	// the warm solve the memoized orderings serve.
	warmSelectNs int64
}

// solveColdWarm runs the cold and the warm solve and fails if any warm
// candidate diverges from its cold counterpart.
func solveColdWarm(s *benchSetup, cfg experiments.Config) (*coldWarm, error) {
	seedsB := comic.HighDegreeSeeds(s.d.Graph, s.opp)
	cw := &coldWarm{idx: comic.NewRRIndex(0)}
	opts := comic.Options{
		Epsilon:    cfg.Epsilon,
		FixedTheta: cfg.FixedTheta,
		MaxTheta:   cfg.MaxTheta,
		EvalRuns:   s.mc,
		Seed:       cfg.Seed,
		Index:      cw.idx,
		GraphID:    s.Dataset,
	}
	t0 := time.Now()
	cold, err := comic.SelfInfMax(s.d.Graph, s.d.GAP, seedsB, s.k, opts)
	if err != nil {
		return nil, err
	}
	cw.coldNs = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	warm, err := comic.SelfInfMax(s.d.Graph, s.d.GAP, seedsB, s.k, opts)
	if err != nil {
		return nil, err
	}
	cw.warmNs = time.Since(t1).Nanoseconds()
	for i, c := range warm.Candidates {
		if cold.Candidates[i].Name != c.Name || !slices.Equal(cold.Candidates[i].Seeds, c.Seeds) {
			return nil, fmt.Errorf("warm candidate %q diverged from cold", c.Name)
		}
		if c.Stats != nil {
			cw.warmSelectNs += c.Stats.SelectDuration.Nanoseconds()
		}
	}
	cw.cold = cold
	return cw, nil
}

// post serves one POST in process and returns the body of the 200 reply.
func post(s *server.Server, path, body string) ([]byte, error) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s = %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// solveRespRecord is the slice of a solve response the benchmarks consume.
type solveRespRecord struct {
	Seeds      []int32 `json:"seeds"`
	Candidates []struct {
		Theta int `json:"theta"`
	} `json:"candidates"`
}
