package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/montecarlo"
	"comic/internal/rrset"
	"comic/internal/server"
	"comic/internal/solver"
)

// Server defaults the solve configuration mirrors: the values
// server.Config.withDefaults (internal/server/server.go) gives a
// zero-valued Config, as runSolve and server.New apply them. The server
// does not export them, so they are copied here; if one drifts, the
// oracle's recomputations stop matching the served replies.
const (
	serverMaxTheta   = 2_000_000 // withDefaults: c.MaxTheta
	serverGreedyRuns = 200       // withDefaults: c.GreedyRuns
	serverMaxK       = 500       // withDefaults: c.MaxK (Index.SetMaxOrderK in server.New)
	serverBuildLimit = 4         // withDefaults: c.MaxConcurrentBuilds (Index.SetBuildLimit in server.New)
	serverCacheBytes = 1 << 30   // withDefaults: c.CacheBytes (NewIndex in server.New)
)

// Reply shapes, decoded from the wire.
type graphReply struct {
	Name        string             `json:"name"`
	Nodes       int                `json:"nodes"`
	Edges       int                `json:"edges"`
	GAP         map[string]float64 `json:"gap"`
	Regime      string             `json:"regime"`
	Generation  int64              `json:"generation"`
	Fingerprint string             `json:"fingerprint"`
	Source      string             `json:"source"`
	Created     string             `json:"created"`
}

type planReply struct {
	Regime    string `json:"regime"`
	Algorithm string `json:"algorithm"`
	Guarantee string `json:"guarantee"`
	Reason    string `json:"reason"`
}

type candReply struct {
	Name      string  `json:"name"`
	Seeds     []int32 `json:"seeds"`
	Objective float64 `json:"objective"`
	Theta     int     `json:"theta,omitempty"`
}

type solveReply struct {
	Dataset    string      `json:"dataset"`
	Graph      graphReply  `json:"graph"`
	Problem    string      `json:"problem"`
	K          int         `json:"k"`
	Seed       uint64      `json:"seed"`
	Seeds      []int32     `json:"seeds"`
	Objective  float64     `json:"objective"`
	Chosen     string      `json:"chosen"`
	UpperRatio float64     `json:"upperRatio,omitempty"`
	Plan       planReply   `json:"plan"`
	Candidates []candReply `json:"candidates"`
	ElapsedMs  float64     `json:"elapsedMs"`
}

type estimateReply struct {
	Dataset   string   `json:"dataset"`
	MeanA     *float64 `json:"meanA"`
	StderrA   float64  `json:"stderrA"`
	MeanB     float64  `json:"meanB"`
	StderrB   float64  `json:"stderrB"`
	Boost     *float64 `json:"boost"`
	Stderr    float64  `json:"stderr"`
	Runs      int      `json:"runs"`
	Seed      uint64   `json:"seed"`
	ElapsedMs float64  `json:"elapsedMs"`
}

type patchReply struct {
	graphReply
	Repair server.RepairSummary `json:"repair"`
}

// solveOutcome is the part of a solve the oracle requires to be
// byte-identical between the server's reply and a recomputation.
type solveOutcome struct {
	Seeds      []int32     `json:"seeds"`
	Objective  float64     `json:"objective"`
	Chosen     string      `json:"chosen"`
	UpperRatio float64     `json:"upperRatio"`
	Plan       planReply   `json:"plan"`
	Candidates []candReply `json:"candidates"`
}

func (r *solveReply) outcome() solveOutcome {
	return solveOutcome{r.Seeds, r.Objective, r.Chosen, r.UpperRatio, r.Plan, r.Candidates}
}

func outcomeOf(res *solver.Result) solveOutcome {
	o := solveOutcome{
		Seeds: res.Seeds, Objective: res.Objective, Chosen: res.Chosen, UpperRatio: res.UpperRatio,
		Plan: planReply{
			Regime:    res.Plan.Regime.String(),
			Algorithm: string(res.Plan.Algorithm),
			Guarantee: res.Plan.Guarantee,
			Reason:    res.Plan.Reason,
		},
	}
	for _, c := range res.Candidates {
		cr := candReply{Name: c.Name, Seeds: c.Seeds, Objective: c.Objective}
		if c.Stats != nil {
			cr.Theta = c.Stats.Theta
		}
		o.Candidates = append(o.Candidates, cr)
	}
	return o
}

// checkReply is the per-reply oracle: a 2xx status and a well-formed body
// that answers the op that was sent — k distinct in-range seeds for a
// solve, the requested runs for an estimate, the expected generation for
// a patch. It returns the decoded reply.
func checkReply(s *Sample, n int) (any, error) {
	if s.Err != nil {
		return nil, s.Err
	}
	if s.Status < 200 || s.Status > 299 {
		return nil, fmt.Errorf("status %d: %s", s.Status, bytes.TrimSpace(s.Body))
	}
	op := s.Op
	dec := json.NewDecoder(bytes.NewReader(s.Body))
	dec.DisallowUnknownFields()
	switch op.Route {
	case routeSelf, routeComp:
		var r solveReply
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("malformed solve reply: %v", err)
		}
		return &r, checkSolve(op, &r, n)
	case routeSpread, routeBoost:
		var r estimateReply
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("malformed estimate reply: %v", err)
		}
		return &r, checkEstimate(op, &r, n)
	case routePatch:
		var r patchReply
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("malformed patch reply: %v", err)
		}
		if r.Name != op.Graph || r.Generation != op.Gen || r.Nodes != n {
			return nil, fmt.Errorf("patch reply for %s gen %d, sent %s gen %d", r.Name, r.Generation, op.Graph, op.Gen)
		}
		return &r, nil
	}
	return nil, fmt.Errorf("unknown route %q", op.Route)
}

func checkSolve(op *Op, r *solveReply, n int) error {
	b := op.Solve
	problem := "self"
	if op.Route == routeComp {
		problem = "comp"
	}
	switch {
	case r.Dataset != op.Graph || r.Problem != problem || r.K != b.K || r.Seed != b.Seed:
		return fmt.Errorf("solve reply echoes %s/%s/k=%d/seed=%d, sent %s/%s/k=%d/seed=%d",
			r.Dataset, r.Problem, r.K, r.Seed, op.Graph, problem, b.K, b.Seed)
	case r.Graph.Generation != op.Gen || r.Graph.Nodes != n:
		return fmt.Errorf("solve computed on generation %d (n=%d), want %d (n=%d)", r.Graph.Generation, r.Graph.Nodes, op.Gen, n)
	case r.Plan.Regime == "" || r.Plan.Algorithm == "" || len(r.Candidates) == 0:
		return fmt.Errorf("solve reply without plan or candidates")
	case math.IsNaN(r.Objective) || math.IsInf(r.Objective, 0) || r.Objective < 0:
		return fmt.Errorf("solve objective %v", r.Objective)
	}
	if err := checkSeedSet(r.Seeds, b.K, n); err != nil {
		return err
	}
	for _, c := range r.Candidates {
		if c.Name == r.Chosen {
			return nil
		}
	}
	return fmt.Errorf("chosen candidate %q not among candidates", r.Chosen)
}

func checkSeedSet(seeds []int32, k, n int) error {
	if len(seeds) != k {
		return fmt.Errorf("%d seeds, want k=%d", len(seeds), k)
	}
	seen := make(map[int32]bool, k)
	for _, v := range seeds {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("seed %d out of range or repeated", v)
		}
		seen[v] = true
	}
	return nil
}

func checkEstimate(op *Op, r *estimateReply, n int) error {
	b := op.Est
	if r.Dataset != op.Graph || r.Runs != b.Runs || r.Seed != b.Seed {
		return fmt.Errorf("estimate reply echoes %s/runs=%d/seed=%d, sent %s/runs=%d/seed=%d",
			r.Dataset, r.Runs, r.Seed, op.Graph, b.Runs, b.Seed)
	}
	var v float64
	if op.Route == routeSpread {
		if r.MeanA == nil {
			return fmt.Errorf("spread reply without meanA")
		}
		v = *r.MeanA
		if r.MeanB < 0 || r.MeanB > float64(n) {
			return fmt.Errorf("meanB %v outside [0,%d]", r.MeanB, n)
		}
	} else {
		if r.Boost == nil {
			return fmt.Errorf("boost reply without boost")
		}
		v = *r.Boost
	}
	if math.IsNaN(v) || math.Abs(v) > float64(n) {
		return fmt.Errorf("estimate %v outside [-%d,%d]", v, n, n)
	}
	return nil
}

// solveConfig configures a solver call exactly as the server's runSolve
// does for op with program defaults, drawing collections from provider.
func solveConfig(b *solveBody, provider rrset.CollectionProvider, graphID string) solver.Config {
	cfg := solver.NewConfig(b.K)
	if b.Epsilon > 0 {
		cfg.TIM.Epsilon = b.Epsilon
	}
	cfg.TIM.FixedTheta = b.FixedTheta
	cfg.TIM.MaxTheta = serverMaxTheta
	cfg.EvalRuns = b.EvalRuns
	cfg.GreedyRuns = serverGreedyRuns
	cfg.MaxGreedyNodes = solver.DefaultMaxGreedyNodes
	cfg.Seed = b.Seed
	cfg.Collections = provider
	cfg.GraphID = graphID
	return cfg
}

// newPrivateIndex returns an index configured like the server's.
func newPrivateIndex() *server.Index {
	x := server.NewIndex(serverCacheBytes)
	x.SetBuildLimit(serverBuildLimit)
	x.SetMaxOrderK(serverMaxK)
	return x
}

// solveDirect runs a solve op through the solver package.
func solveDirect(op *Op, g *graph.Graph, gap core.GAP, provider rrset.CollectionProvider, graphID string) (*solver.Result, error) {
	cfg := solveConfig(op.Solve, provider, graphID)
	if op.Route == routeComp {
		return solver.SolveCompInfMax(g, gap, op.Solve.SeedsA, cfg)
	}
	return solver.SolveSelfInfMax(g, gap, op.Solve.SeedsB, cfg)
}

// estimateDirect runs an estimate op through the montecarlo package and
// returns the reply fields the server computes from it.
func estimateDirect(op *Op, g *graph.Graph, gap core.GAP) estimateReply {
	b := op.Est
	est := montecarlo.New(g, gap)
	out := estimateReply{Dataset: op.Graph, Runs: b.Runs, Seed: b.Seed}
	if op.Route == routeSpread {
		res := est.Estimate(b.SeedsA, b.SeedsB, b.Runs, b.Seed)
		out.MeanA, out.StderrA, out.MeanB, out.StderrB = &res.MeanA, res.StderrA, res.MeanB, res.StderrB
	} else {
		mean, se := est.BoostPaired(b.SeedsA, b.SeedsB, b.Runs, b.Seed)
		out.Boost, out.Stderr = &mean, se
	}
	return out
}

// compareSolve requires the recomputed outcome to be byte-identical to
// the reply's.
func compareSolve(r *solveReply, res *solver.Result) error {
	got, want := mustJSON(r.outcome()), mustJSON(outcomeOf(res))
	if !bytes.Equal(got, want) {
		return fmt.Errorf("reply %s != recomputed %s", got, want)
	}
	return nil
}

func compareEstimate(r *estimateReply, want estimateReply) error {
	got := *r
	got.ElapsedMs = 0
	if g, w := mustJSON(got), mustJSON(want); !bytes.Equal(g, w) {
		return fmt.Errorf("reply %s != recomputed %s", g, w)
	}
	return nil
}

// checked is one sample with its decoded reply and verdict.
type checked struct {
	Sample
	Reply any
	Fail  error
}

// deepOracle recomputes a deterministic selection of replies outside the
// timed phase, with a private index, and marks mismatches as failures:
// every warm shape, the first spread and boost of each client, the first
// self and compinfmax of each cold-build client, and each patch-mix
// graph's last solve on its replayed final generation. It returns the
// number of replies it recomputed.
func deepOracle(p *Plan, results [clients][]checked) int {
	x := newPrivateIndex()
	d := p.Graphs[firstGraph(p)]
	picked := 0
	verify := func(ck *checked, g *graph.Graph, graphID string) {
		picked++
		switch r := ck.Reply.(type) {
		case *solveReply:
			res, err := solveDirect(ck.Op, g, d.GAP, x, graphID)
			if err == nil {
				err = compareSolve(r, res)
			}
			if err != nil {
				ck.Fail = fmt.Errorf("oracle: %v", err)
			}
		case *estimateReply:
			if err := compareEstimate(r, estimateDirect(ck.Op, g, d.GAP)); err != nil {
				ck.Fail = fmt.Errorf("oracle: %v", err)
			}
		}
	}
	switch p.Workload {
	case "warm-eval":
		shapeDone := map[int]bool{}
		routeDone := map[string]bool{}
		for c := range results {
			for i := range results[c] {
				ck := &results[c][i]
				if ck.Fail != nil {
					continue
				}
				key := fmt.Sprintf("%d/%s", c, ck.Op.Route)
				switch {
				case ck.Op.Route == routeSelf && !shapeDone[ck.Op.Shape]:
					shapeDone[ck.Op.Shape] = true
				case ck.Op.Route != routeSelf && !routeDone[key]:
					routeDone[key] = true
				default:
					continue
				}
				verify(ck, d.Graph, "flixster")
			}
		}
	case "cold-build":
		for c := range results {
			done := map[string]bool{}
			for i := range results[c] {
				ck := &results[c][i]
				if ck.Fail == nil && !done[ck.Op.Route] {
					done[ck.Op.Route] = true
					verify(ck, d.Graph, "flixster")
				}
			}
		}
	case "patch-mix":
		for c := range results {
			last := -1
			for i := range results[c] {
				if results[c][i].Fail == nil && results[c][i].Op.Route == routeSelf {
					last = i
				}
			}
			if last < 0 {
				continue
			}
			ck := &results[c][last]
			g, err := replayGraph(p, c, ck.Op.Gen)
			if err != nil {
				ck.Fail = fmt.Errorf("oracle: %v", err)
				continue
			}
			verify(ck, g, fmt.Sprintf("%s@%d", ck.Op.Graph, ck.Op.Gen))
		}
	}
	return picked
}

// replayGraph re-applies client c's patch batches, set-up first, through
// graph.ApplyUpdates up to generation gen.
func replayGraph(p *Plan, c int, gen int64) (*graph.Graph, error) {
	g := p.Graphs[fmt.Sprintf("flixster-%d", c)].Graph
	apply := func(op *Op) error {
		if op.Route != routePatch || op.Gen > gen {
			return nil
		}
		ng, _, err := g.ApplyUpdates(op.Patch)
		g = ng
		return err
	}
	for i := range p.Setup[c] {
		if err := apply(&p.Setup[c][i]); err != nil {
			return nil, err
		}
	}
	for i := range p.Timed[c].ops {
		if err := apply(&p.Timed[c].ops[i]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func firstGraph(p *Plan) string {
	if _, ok := p.Graphs["flixster"]; ok {
		return "flixster"
	}
	return "flixster-0"
}
