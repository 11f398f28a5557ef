package core_test

import (
	"reflect"
	"testing"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rng"
)

// mixedProbGraph is a random graph whose edges carry p = 0 and p = 1
// (Bernoulli calls that consume no draw) among fractional ones.
func mixedProbGraph(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n).KeepDuplicates()
	for i := 0; i < m; i++ {
		p := []float64{0, 1, r.Float64()}[r.Intn(3)]
		u := int32(r.Intn(n))
		b.AddEdge(u, (u+1+int32(r.Intn(n-1)))%int32(n), p)
	}
	return b.MustBuild()
}

// TestResampleMatchesSampleWorld checks that redrawing one World in place
// yields exactly SampleWorld's world and leaves the RNG in the same state,
// including when the buffers move between graphs of different sizes.
func TestResampleMatchesSampleWorld(t *testing.T) {
	graphs := []*graph.Graph{
		mixedProbGraph(50, 300, 1),
		mixedProbGraph(10, 20, 2),    // shrink: reuse the larger buffers
		mixedProbGraph(200, 1500, 3), // grow past them
		mixedProbGraph(50, 300, 4),
	}
	w := new(core.World)
	for i, g := range graphs {
		for run := uint64(0); run < 5; run++ {
			r1, r2 := rng.NewStream(9, run), rng.NewStream(9, run)
			want := core.SampleWorld(g, r1)
			w.Resample(g, r2)
			if !reflect.DeepEqual(w, want) {
				t.Fatalf("graph %d run %d: Resample differs from SampleWorld", i, run)
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("graph %d run %d: Resample consumed a different number of draws", i, run)
			}
		}
	}
}

// TestTraceOnOffSameCounts checks that tracing, which keeps the informs an
// untraced run drops as dead, changes no outcome of the run.
func TestTraceOnOffSameCounts(t *testing.T) {
	g := graph.PowerLaw(400, 8, 2.16, true, rng.New(3))
	graph.AssignWeightedCascade(g)
	seedsA, seedsB := []int32{0, 1, 2, 3}, []int32{3, 4, 5, 6}
	for _, gap := range []core.GAP{
		{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.8},
		{QA0: 0.7, QAB: 0.2, QB0: 0.6, QBA: 0.3},
	} {
		sim := core.NewSimulator(g, gap)
		for i := uint64(0); i < 50; i++ {
			ca, cb := sim.Run(seedsA, seedsB, rng.NewStream(4, i))
			adoptedA := append([]int32(nil), sim.AdoptedA()...)
			tr := sim.RunTrace(seedsA, seedsB, rng.NewStream(4, i))
			if tr.CountA != ca || tr.CountB != cb {
				t.Fatalf("gap %+v run %d: traced counts %d/%d, untraced %d/%d", gap, i, tr.CountA, tr.CountB, ca, cb)
			}
			if !reflect.DeepEqual(sim.AdoptedA(), adoptedA) {
				t.Fatalf("gap %+v run %d: traced A adoption order differs", gap, i)
			}
		}
	}
}

// TestSteadyStateZeroAllocs pins the Monte-Carlo hot loop's allocation
// count: once its scratch has grown, a lazy run and a world redraw
// allocate nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	g := graph.PowerLaw(500, 8, 2.16, true, rng.New(1))
	graph.AssignWeightedCascade(g)
	sim := core.NewSimulator(g, core.GAP{QA0: 0.4, QAB: 0.9, QB0: 0.5, QBA: 0.8})
	seedsA, seedsB := []int32{0, 1, 2}, []int32{2, 3, 4}
	var r rng.RNG
	run := func() {
		r.ReseedStream(8, 1)
		sim.Run(seedsA, seedsB, &r)
	}
	run()
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Errorf("warm lazy Run: %v allocs per run, want 0", a)
	}
	w := core.SampleWorld(g, rng.New(2))
	if a := testing.AllocsPerRun(100, func() { w.Resample(g, &r) }); a != 0 {
		t.Errorf("Resample: %v allocs per run, want 0", a)
	}
}
