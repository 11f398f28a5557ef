package montecarlo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"comic/internal/core"
	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/rng"
)

// goldenCase is one (dataset, GAP) instance of the golden digests.
type goldenCase struct {
	name string
	g    *graph.Graph
	gap  core.GAP
}

func goldenCases() []goldenCase {
	fl := datasets.Flixster(0.05, 1)
	lf := datasets.LastFM(0.02, 1)
	// A competitive GAP alongside the learned complementary ones, so
	// rejections (and not only reconsiderations) shape the cascades.
	compete := core.GAP{QA0: 0.7, QAB: 0.2, QB0: 0.6, QBA: 0.3}
	return []goldenCase{
		{"flixster", fl.Graph, fl.GAP},
		{"flixster-compete", fl.Graph, compete},
		{"lastfm", lf.Graph, lf.GAP},
	}
}

// goldenSeeds returns the A and B seed lists of a golden case: the eight
// highest out-degree nodes (ties to the lower id), alternated between
// the two items so both cascades are large and overlap.
func goldenSeeds(g *graph.Graph) (seedsA, seedsB []int32) {
	order := make([]int32, g.N())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return g.OutDegree(b) - g.OutDegree(a)
	})
	for i, v := range order[:8] {
		if i%2 == 0 {
			seedsA = append(seedsA, v)
		} else {
			seedsB = append(seedsB, v)
		}
	}
	return seedsA, seedsB
}

func putF(h hash.Hash, x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	h.Write(b[:])
}

func putI32s(h hash.Hash, xs ...[]int32) {
	var b [4]byte
	for _, s := range xs {
		for _, x := range s {
			binary.LittleEndian.PutUint32(b[:], uint32(x))
			h.Write(b[:])
		}
	}
}

func putStates(h hash.Hash, xs ...[]core.State) {
	for _, s := range xs {
		for _, x := range s {
			h.Write([]byte{byte(x)})
		}
	}
}

// TestGoldenMonteCarloDigests pins the exact bits of every Monte-Carlo
// output the solvers consume — Estimate, BoostPaired, PairedBaselineA with
// BoostPairedFromBaseline, and the event stamps of traced lazy runs — on
// two generated datasets with fixed seeds. Any change to the simulation
// kernel's draw order, tie-breaking, or accumulation shows up here; a pure
// speed change must leave every digest untouched.
func TestGoldenMonteCarloDigests(t *testing.T) {
	want := map[string]string{
		"flixster/estimate":         "d1c856205a3028cd42cca22e6cf8f2bc8b46e7ce9d60e69372c90f5734dacdb8",
		"flixster/paired":           "474b0809304f2b1e92ea96ba3b538161b2ef2998f5a4d10bfc290bf6fcc6840b",
		"flixster/trace":            "c77d9402cd90d477582ae28c9b63f52c49dbacbd0c3a1b14d1cf7ac1454779c4",
		"flixster-compete/estimate": "9f18689da3d269f4089bb5be58ed152ae7ac9658ad5593b5cdf259e620280025",
		"flixster-compete/paired":   "ac79c482b600f5c4875489e94b27d1397be55d2d21cdf64f60a809d54aef0adf",
		"flixster-compete/trace":    "e691d7a1ddebd1ccdb8048129aa4b5df3f9e78e7bbdf0c2691752cc13e963c03",
		"lastfm/estimate":           "29f9c80375f6385813c817ac9bec7d69d753dd5c9b8ac51f428d78a9f7f6e4ae",
		"lastfm/paired":             "7c7a775df80264e29bfaa02be346a6611d9b7d71cbb31865c96b35e2fe827829",
		"lastfm/trace":              "9b426053e33b12d3b6c346b3ff5d2998c349b7f3ce08eb6c89b9c0ba65c2cc19",
	}
	const runs = 200
	for _, c := range goldenCases() {
		seedsA, seedsB := goldenSeeds(c.g)
		est := New(c.g, c.gap)
		est.Workers = 3

		h := sha256.New()
		for _, seed := range []uint64{1, 2} {
			res := est.Estimate(seedsA, seedsB, runs, seed)
			putF(h, res.MeanA)
			putF(h, res.MeanB)
			putF(h, res.StderrA)
			putF(h, res.StderrB)
		}
		checkDigest(t, want, c.name+"/estimate", h)

		h = sha256.New()
		for _, seed := range []uint64{1, 2} {
			mean, stderr := est.BoostPaired(seedsA, seedsB, runs, seed)
			putF(h, mean)
			putF(h, stderr)
			baseline := est.PairedBaselineA(seedsA, runs, seed)
			putI32s(h, baseline)
			for _, sb := range [][]int32{seedsB, seedsB[:1], {seedsB[1], seedsA[0]}} {
				mean, stderr = est.BoostPairedFromBaseline(seedsA, sb, baseline, runs, seed)
				putF(h, mean)
				putF(h, stderr)
			}
		}
		checkDigest(t, want, c.name+"/paired", h)

		h = sha256.New()
		sim := core.NewSimulator(c.g, c.gap)
		for i := uint64(0); i < 20; i++ {
			tr := sim.RunTrace(seedsA, seedsB, rng.NewStream(7, i))
			putI32s(h, []int32{int32(tr.CountA), int32(tr.CountB)},
				tr.InformTimeA, tr.AdoptTimeA, tr.InformTimeB, tr.AdoptTimeB,
				tr.AdoptSeqA, tr.AdoptSeqB,
				tr.InformEvA, tr.AdoptEvA, tr.InformEvB, tr.AdoptEvB)
			putStates(h, tr.StateA, tr.StateB)
		}
		checkDigest(t, want, c.name+"/trace", h)
	}
}

func checkDigest(t *testing.T, want map[string]string, key string, h hash.Hash) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	if got != want[key] {
		t.Errorf("%s digest = %s, want %s", key, got, want[key])
	}
}
