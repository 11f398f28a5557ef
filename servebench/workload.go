package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/rng"
)

// Routes the workloads send, by the latency class they are reported under.
const (
	routeSelf   = "selfinfmax"
	routeComp   = "compinfmax"
	routeSpread = "spread"
	routeBoost  = "boost"
	routePatch  = "patch"
)

// Workload shape constants. Every workload runs on the Flixster stand-in
// at scale 0.05 (645 nodes, 7,272 edges, Q+ GAP).
const (
	datasetScale  = 0.05
	datasetSeed   = 1
	warmShapes    = 8   // query shapes warmed by the warm-eval set-up
	oppositeSize  = 10  // nodes in every opposite seed set
	oppositePool  = 100 // opposite sets are drawn from the top out-degree nodes
	warmEvalRuns  = 200 // warm-eval: evalRuns of its solves, runs of its estimates
	coldEvalRuns  = 100 // cold-build: evalRuns of every solve
	coldTheta     = 2000
	coldEpsilon   = 1.25
	patchK        = 10
	patchEvalRuns = 100
	patchSolves   = 3 // patch-mix: shapes per client, one solve each after every patch
	clients       = 2
)

var shapeKs = []int{5, 10, 20}

// Op is one generated request: the exact body sent, plus the decoded
// fields the oracle and the traced replay need.
type Op struct {
	Route string
	Graph string // dataset / registered graph name
	Body  []byte
	// Shape is the warm shape index (warm-eval), else -1.
	Shape int
	Solve *solveBody
	Est   *estimateBody
	Patch []graph.EdgeUpdate
	// Gen is the graph generation the op computes on (its own result
	// generation for a patch).
	Gen int64
}

// Method and Path give the HTTP request line of the op.
func (o *Op) Method() string {
	if o.Route == routePatch {
		return "PATCH"
	}
	return "POST"
}

func (o *Op) Path() string {
	if o.Route == routePatch {
		return "/v1/graphs/" + o.Graph + "/edges"
	}
	return "/v1/" + o.Route
}

// Wire bodies, field for field what docs/api.md documents.
type solveBody struct {
	Dataset    string  `json:"dataset"`
	K          int     `json:"k"`
	SeedsA     []int32 `json:"seedsA,omitempty"`
	SeedsB     []int32 `json:"seedsB,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	FixedTheta int     `json:"fixedTheta,omitempty"`
	EvalRuns   int     `json:"evalRuns"`
	Seed       uint64  `json:"seed"`
}

type estimateBody struct {
	Dataset string  `json:"dataset"`
	SeedsA  []int32 `json:"seedsA,omitempty"`
	SeedsB  []int32 `json:"seedsB,omitempty"`
	Runs    int     `json:"runs"`
	Seed    uint64  `json:"seed"`
}

type updateBody struct {
	Op string   `json:"op"`
	U  int32    `json:"u"`
	V  int32    `json:"v"`
	P  *float64 `json:"p,omitempty"`
}

type patchBody struct {
	Updates      []updateBody `json:"updates"`
	IfGeneration int64        `json:"ifGeneration"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func solveOp(route, graphName string, shape int, b *solveBody, gen int64) Op {
	b.Dataset = graphName
	return Op{Route: route, Graph: graphName, Body: mustJSON(b), Shape: shape, Solve: b, Gen: gen}
}

func estimateOp(route, graphName string, shape int, b *estimateBody) Op {
	b.Dataset = graphName
	return Op{Route: route, Graph: graphName, Body: mustJSON(b), Shape: shape, Est: b}
}

func patchOp(graphName string, ups []graph.EdgeUpdate, gen int64) Op {
	body := patchBody{IfGeneration: gen - 1}
	for _, u := range ups {
		p := u.P
		body.Updates = append(body.Updates, updateBody{Op: string(u.Op), U: u.U, V: u.V, P: &p})
	}
	return Op{Route: routePatch, Graph: graphName, Body: mustJSON(body), Shape: -1, Patch: ups, Gen: gen}
}

// Stream is one client's deterministic, unbounded op sequence: op i is a
// pure function of the workload seed, the client and i (and, for
// patch-mix, of the ops before it, which are generated in order).
type Stream struct {
	ops  []Op
	next func(i int) Op
}

// At returns op i, generating the sequence up to it on first use.
func (s *Stream) At(i int) *Op {
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.next(len(s.ops)))
	}
	return &s.ops[i]
}

// Plan is everything one workload run sends: the graphs it registers,
// the per-client set-up ops, and the per-client timed streams.
type Plan struct {
	Workload string
	Seed     uint64
	// Graphs maps the registered names to the dataset each serves.
	Graphs map[string]*datasets.Dataset
	// Shapes are the warm query shapes (warm-eval only).
	Shapes []solveBody
	Setup  [clients][]Op
	Timed  [clients]*Stream
}

// prefillRate is how many timed ops per client and second of the timed
// phase are generated before it starts, so generation does not compete
// with it: a ceiling well above the fastest rate measured (14 per client
// and second, on warm-eval). Not far above it: a patch-mix patch costs
// about 4 ms to generate.
const prefillRate = 40

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"warm-eval", "cold-build", "patch-mix"}

// newDataset builds the Flixster stand-in every workload serves.
func newDataset() *datasets.Dataset { return datasets.Flixster(datasetScale, datasetSeed) }

// newPlan builds the request plan of a workload from its seed. The same
// (workload, seed) always yields byte-identical request bodies.
func newPlan(workload string, seed uint64) (*Plan, error) {
	p := &Plan{Workload: workload, Seed: seed}
	d := newDataset()
	pool := graph.TopKByDegree(d.Graph, oppositePool)
	switch workload {
	case "warm-eval":
		p.Graphs = map[string]*datasets.Dataset{"flixster": d}
		p.Shapes = warmShapeSet(seed, pool)
		// Set-up: the clients split the shapes, one warming solve each.
		// evalRuns 1 keeps set-up about the index, not Monte-Carlo.
		for j := range p.Shapes {
			b := p.Shapes[j]
			b.EvalRuns = 1
			p.Setup[j%clients] = append(p.Setup[j%clients], solveOp(routeSelf, "flixster", j, &b, 0))
		}
		for c := 0; c < clients; c++ {
			c := c
			p.Timed[c] = &Stream{next: func(i int) Op { return warmOp(p, pool, c, i) }}
		}
	case "cold-build":
		p.Graphs = map[string]*datasets.Dataset{"flixster": d}
		// Set-up: one cold solve, so first-use costs of the process (heap
		// growth, page faults) are not charged to the first timed request.
		r := rng.NewStream(seed^0xc01d5e7, 0)
		b := solveBody{K: 10, SeedsB: draw(pool, oppositeSize, r), EvalRuns: coldEvalRuns, Seed: 1 + uint64(r.Intn(1<<20))}
		p.Setup[0] = []Op{solveOp(routeSelf, "flixster", -1, &b, 0)}
		for c := 0; c < clients; c++ {
			c := c
			p.Timed[c] = &Stream{next: func(i int) Op { return coldOp(seed, pool, c, i) }}
		}
	case "patch-mix":
		// Two registered copies of the graph: separate graph objects, as
		// two uploads of the same edge list would be.
		p.Graphs = map[string]*datasets.Dataset{}
		for c := 0; c < clients; c++ {
			name := fmt.Sprintf("flixster-%d", c)
			p.Graphs[name] = newDataset()
			p.Timed[c], p.Setup[c] = patchStream(seed, pool, p.Graphs[name].Graph, name, c)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return p, nil
}

// warmShapeSet draws the warm query shapes: k cycles through 5, 10, 20;
// the opposite set is 10 nodes of the top-100 out-degree nodes, one from
// each tenth of them.
func warmShapeSet(seed uint64, pool []int32) []solveBody {
	shapes := make([]solveBody, warmShapes)
	for j := range shapes {
		r := rng.NewStream(seed^0x5a4e5, uint64(j))
		shapes[j] = solveBody{
			K:      shapeKs[j%len(shapeKs)],
			SeedsB: draw(pool, oppositeSize, r),
			Seed:   1 + uint64(r.Intn(1<<20)),
		}
	}
	return shapes
}

// warmOp is op i of client c on warm-eval. Of every five ops, three are
// solves, one a spread and one a boost. The clients cycle through the
// shapes half a cycle apart, so every run sends the same mix of k rather
// than a seed-dependent draw of it.
func warmOp(p *Plan, pool []int32, c, i int) Op {
	r := rng.NewStream(p.Seed^0x3a7e^uint64(c)<<40, uint64(i))
	j := (i + c*len(p.Shapes)/clients) % len(p.Shapes)
	shape := p.Shapes[j]
	switch i % 5 {
	case 3:
		return estimateOp(routeSpread, "flixster", j, &estimateBody{
			SeedsA: draw(pool, shape.K, r), SeedsB: shape.SeedsB,
			Runs: warmEvalRuns, Seed: 1 + uint64(r.Intn(1<<20)),
		})
	case 4:
		return estimateOp(routeBoost, "flixster", j, &estimateBody{
			SeedsA: shape.SeedsB, SeedsB: draw(pool, shape.K, r),
			Runs: warmEvalRuns, Seed: 1 + uint64(r.Intn(1<<20)),
		})
	default:
		b := shape
		b.EvalRuns = warmEvalRuns
		return solveOp(routeSelf, "flixster", j, &b, 0)
	}
}

// coldOp is op i of client c on cold-build: a fresh opposite set and
// master seed every time, so every request misses the index. One in
// five is a compinfmax with θ pinned.
func coldOp(seed uint64, pool []int32, c, i int) Op {
	r := rng.NewStream(seed^0xc01d^uint64(c)<<40, uint64(i))
	b := solveBody{
		K:        shapeKs[i%len(shapeKs)],
		EvalRuns: coldEvalRuns,
	}
	opp := draw(pool, oppositeSize, r)
	b.Seed = 1 + uint64(r.Intn(1<<20))
	if i%5 == 4 {
		b.SeedsA, b.FixedTheta = opp, coldTheta
		return solveOp(routeComp, "flixster", -1, &b, 0)
	}
	b.SeedsB, b.Epsilon = opp, coldEpsilon
	return solveOp(routeSelf, "flixster", -1, &b, 0)
}

// patchStream builds client c's patch-mix set-up (a solve per shape, a
// patch, a solve per shape) and timed stream (a patch, then one solve per
// shape, repeated) on its own graph. Each client has patchSolves shapes,
// so one seed's work averages over several opposite sets.
func patchStream(seed uint64, pool []int32, g *graph.Graph, name string, c int) (*Stream, []Op) {
	shapes := make([]solveBody, patchSolves)
	for j := range shapes {
		r := rng.NewStream(seed^0x9a7c4^uint64(c)<<40, uint64(j))
		shapes[j] = solveBody{K: patchK, SeedsB: draw(pool, oppositeSize, r), EvalRuns: patchEvalRuns, Seed: 1 + uint64(r.Intn(1<<20))}
	}
	cur, gen := g, int64(0)
	nextPatch := func() Op {
		ups := streamBatch(cur, rng.NewStream(seed^0x9a7c4b^uint64(c)<<40, uint64(gen)))
		ng, _, err := cur.ApplyUpdates(ups)
		if err != nil {
			panic(fmt.Sprintf("patch-mix batch %d does not apply: %v", gen, err))
		}
		cur, gen = ng, gen+1
		return patchOp(name, ups, gen)
	}
	solve := func(j int) Op {
		b := shapes[j]
		return solveOp(routeSelf, name, j, &b, gen)
	}
	var setup []Op
	for j := range shapes {
		setup = append(setup, solve(j))
	}
	setup = append(setup, nextPatch())
	for j := range shapes {
		setup = append(setup, solve(j))
	}
	return &Stream{next: func(i int) Op {
		if j := i % (patchSolves + 1); j > 0 {
			return solve(j - 1)
		}
		return nextPatch()
	}}, setup
}

// streamBatch picks the standard streaming batch: reweight-cuts over the
// 1% of edges with the smallest probabilities — under the stand-in's
// WC-style weighting, the in-edges of the highest-degree hubs — each cut
// by a factor in [0.3, 0.9) drawn from r. Cuts within (0,1) keep recorded
// blocked examinations replayable, so the batch dirties few RR sets.
func streamBatch(g *graph.Graph, r *rng.RNG) []graph.EdgeUpdate {
	size := max(g.M()/100, 10)
	type edgeP struct {
		eid int32
		p   float64
	}
	all := make([]edgeP, g.M())
	for eid := int32(0); eid < int32(g.M()); eid++ {
		all[eid] = edgeP{eid, g.Prob(eid)}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].p < all[j].p || (all[i].p == all[j].p && all[i].eid < all[j].eid)
	})
	seen := make(map[[2]int32]bool)
	var ups []graph.EdgeUpdate
	for _, e := range all {
		if len(ups) >= size {
			break
		}
		u, v := g.EdgeEndpoints(e.eid)
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		ups = append(ups, graph.EdgeUpdate{Op: graph.OpReweight, U: u, V: v, P: e.p * (0.3 + 0.6*r.Float64())})
	}
	return ups
}

// draw returns m distinct nodes of pool chosen by r, sorted. pool is in
// degree order and split into m equal runs, one node drawn from each, so
// the mean cascade size of a run's sets, and with it the run's cost,
// varies half as much from seed to seed as with a plain random subset.
func draw(pool []int32, m int, r *rng.RNG) []int32 {
	out := make([]int32, m)
	for i := range out {
		lo, hi := i*len(pool)/m, (i+1)*len(pool)/m
		out[i] = pool[lo+r.Intn(hi-lo)]
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
