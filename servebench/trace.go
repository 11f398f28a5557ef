package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"comic/internal/core"
	"comic/internal/graph"
	"comic/internal/rrset"
	"comic/internal/sandwich"
	"comic/internal/server"
	"comic/internal/solver"
)

// requestIDHeader carries the benchmark's request id to the traced
// handler wrapper, so client and server spans of a request share it.
const requestIDHeader = "X-Bench-Request"

// Span is one timed call at a layer boundary. Times are microseconds since
// the tracer started.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Req    string             `json:"req"`
	Route  string             `json:"route,omitempty"`
	Start  float64            `json:"startUs"`
	End    float64            `json:"endUs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *Span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// add records a finished span and returns its id.
func (t *tracer) add(name, req, route string, parent int, start, end time.Time, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Route: route,
		Start: t.us(start), End: t.us(end), Attrs: attrs})
	return id
}

// request records the client-observed span of one HTTP request.
func (t *tracer) request(req, route string, start time.Time, d time.Duration) {
	t.add("http.request", req, route, 0, start, start.Add(d), nil)
}

// wrapper returns the http.Handler wrapper that records a server.handler
// span around Server.ServeHTTP, with the reply's size.
func (t *tracer) wrapper() func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cw := &countingWriter{ResponseWriter: w}
			start := time.Now()
			h.ServeHTTP(cw, r)
			t.add("server.handler", r.Header.Get(requestIDHeader), "", 0, start, time.Now(),
				map[string]float64{"bytes": float64(cw.n)})
		})
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// link sets every server.handler span's parent to the http.request span of
// the same request id, and every replay root's parent likewise.
func (t *tracer) link() {
	byReq := map[string]int{}
	for _, s := range t.spans {
		if s.Name == "http.request" {
			byReq[s.Req] = s.ID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 && s.Name != "http.request" {
			s.Parent = byReq[s.Req]
		}
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, o Options) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []Span `json:"spans"`
	}{o.Workload, o.Seed, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent *Span, children []*Span) float64 {
	// Children may overlap (sandwich builds its two bounds concurrently),
	// so covered time is the union of their intervals.
	sorted := append([]*Span(nil), children...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	covered, end := 0.0, parent.Start
	for _, c := range sorted {
		s, e := max(c.Start, end), min(c.End, parent.End)
		if e > s {
			covered += e - s
			end = e
		}
	}
	return parent.dur() - covered
}

// timedIndex is the replay's collection provider: a server.Index behind a
// timing wrapper that implements both rrset.CollectionProvider and
// rrset.SeedSelector, so the seed-order memo stays on the solver's path.
type timedIndex struct {
	x      *server.Index
	tr     *tracer
	req    string
	parent int
	mu     sync.Mutex
	spans  []int
}

func (ti *timedIndex) Collection(req rrset.CollectionRequest) (*rrset.Collection, error) {
	t0 := time.Now()
	col, err := ti.x.Collection(req)
	ti.record("index.collection", t0)
	return col, err
}

func (ti *timedIndex) SelectSeeds(req rrset.CollectionRequest, n, k int) ([]int32, *rrset.Stats, error) {
	t0 := time.Now()
	seeds, st, err := ti.x.SelectSeeds(req, n, k)
	ti.record("index.select", t0)
	return seeds, st, err
}

func (ti *timedIndex) record(name string, t0 time.Time) {
	id := ti.tr.add(name, ti.req, "", ti.parent, t0, time.Now(), nil)
	ti.mu.Lock()
	ti.spans = append(ti.spans, id)
	ti.mu.Unlock()
}

// layerStats accumulates the replay's per-layer observations.
type layerStats struct {
	solverSelfMs  []float64
	lookupHitUs   []float64
	buildMs       float64
	misses        int64
	kptMs, genMs  []float64
	selectMs      []float64
	thetas        []float64
	setsGen       float64
	genSec        float64
	edges         float64
	bytesSet      []float64
	postingsSet   []float64
	estimateMs    []float64
	nsPerAdoption []float64
	applyMs       []float64
	repairMs      []float64
	dirtyFrac     []float64
	mismatches    int
}

// replayer runs the recorded request sequences through the layers'
// public functions, one request at a time, on a private index.
type replayer struct {
	tr    *tracer
	x     *server.Index
	gap   core.GAP
	cur   map[string]*graph.Graph // per graph name: current generation
	gen   map[string]int64
	stats layerStats
}

func newReplayer(p *Plan, tr *tracer) *replayer {
	rp := &replayer{tr: tr, x: newPrivateIndex(), cur: map[string]*graph.Graph{}, gen: map[string]int64{}}
	for name, d := range p.Graphs {
		rp.cur[name] = d.Graph
		rp.gap = d.GAP
	}
	return rp
}

func (rp *replayer) graphID(name string) string { return fmt.Sprintf("%s@%d", name, rp.gen[name]) }

// replay runs one op and checks its result against the server's reply.
func (rp *replayer) replay(reqID string, op *Op, reply any) {
	g := rp.cur[op.Graph]
	switch op.Route {
	case routeSelf, routeComp:
		ti := &timedIndex{x: rp.x, tr: rp.tr, req: reqID}
		before := rp.x.Stats()
		t0 := time.Now()
		// The solver span's id is needed by its index children before it
		// ends, so it is reserved first and filled in afterwards.
		ti.parent = rp.tr.add("solver.solve", reqID, op.Route, 0, t0, t0, nil)
		res, err := solveDirect(op, g, rp.gap, ti, rp.graphID(op.Graph))
		t1 := time.Now()
		after := rp.x.Stats()
		rp.tr.mu.Lock()
		sp := &rp.tr.spans[ti.parent-1]
		sp.End = rp.tr.us(t1)
		var children []*Span
		for _, id := range ti.spans {
			children = append(children, &rp.tr.spans[id-1])
		}
		self := selfTime(sp, children)
		rp.tr.mu.Unlock()
		if err == nil {
			if r, ok := reply.(*solveReply); ok {
				err = compareSolve(r, res)
			}
		}
		if err != nil {
			rp.mismatch(reqID, err)
			return
		}
		rp.stats.solverSelfMs = append(rp.stats.solverSelfMs, self/1000)
		misses := after.Misses - before.Misses
		if misses == 0 && after.OrderMisses == before.OrderMisses {
			for _, c := range children {
				rp.stats.lookupHitUs = append(rp.stats.lookupHitUs, c.dur())
			}
		} else {
			rp.stats.misses += misses
			rp.stats.buildMs += ms(after.BuildTime - before.BuildTime)
		}
		rp.candidateStats(op, g, res, misses > 0)
	case routeSpread, routeBoost:
		t0 := time.Now()
		got := estimateDirect(op, g, rp.gap)
		t1 := time.Now()
		rp.tr.add("montecarlo."+op.Route, reqID, op.Route, 0, t0, t1, nil)
		rp.stats.estimateMs = append(rp.stats.estimateMs, ms(t1.Sub(t0)))
		if op.Route == routeSpread {
			if adopt := float64(op.Est.Runs) * (*got.MeanA + got.MeanB); adopt > 0 {
				rp.stats.nsPerAdoption = append(rp.stats.nsPerAdoption, float64(t1.Sub(t0))/adopt)
			}
		}
		if r, ok := reply.(*estimateReply); ok {
			if err := compareEstimate(r, got); err != nil {
				rp.mismatch(reqID, err)
			}
		}
	case routePatch:
		t0 := time.Now()
		ng, delta, err := g.ApplyUpdates(op.Patch)
		t1 := time.Now()
		rp.tr.add("graph.apply", reqID, op.Route, 0, t0, t1, nil)
		if err != nil {
			rp.mismatch(reqID, err)
			return
		}
		rp.gen[op.Graph]++
		sum := rp.x.RepairGraph(g, ng, rp.graphID(op.Graph), delta, repairMaxDirtyFrac)
		t2 := time.Now()
		rp.tr.add("index.repair", reqID, op.Route, 0, t1, t2, map[string]float64{
			"repaired": float64(sum.Repaired), "fallbacks": float64(sum.Fallbacks),
			"reusedSets": float64(sum.ReusedSets), "repairedSets": float64(sum.RepairedSets)})
		rp.cur[op.Graph] = ng
		rp.stats.applyMs = append(rp.stats.applyMs, ms(t1.Sub(t0)))
		rp.stats.repairMs = append(rp.stats.repairMs, ms(t2.Sub(t1)))
		if total := sum.ReusedSets + sum.RepairedSets; total > 0 {
			rp.stats.dirtyFrac = append(rp.stats.dirtyFrac, float64(sum.RepairedSets)/float64(total))
		}
		if r, ok := reply.(*patchReply); ok && r.Repair != sum {
			rp.mismatch(reqID, fmt.Errorf("repair %+v, replay repaired %+v", r.Repair, sum))
		}
	}
}

func (rp *replayer) mismatch(reqID string, err error) {
	rp.stats.mismatches++
	logFailure("replay "+reqID, err)
}

// repairMaxDirtyFrac mirrors the server's PATCH repair threshold, the
// unexported repairMaxDirtyFrac of internal/server/patch.go; a drift shows
// as repair summaries that disagree with the server's.
const repairMaxDirtyFrac = 0.5

// candidateStats folds the rrset phase statistics every solve returns.
// Generation numbers come only from solves that built their collections.
func (rp *replayer) candidateStats(op *Op, g *graph.Graph, res *solver.Result, built bool) {
	for _, c := range res.Candidates {
		st := c.Stats
		if st == nil {
			continue
		}
		rp.stats.selectMs = append(rp.stats.selectMs, ms(st.SelectDuration))
		if !built {
			continue
		}
		if st.KPTDuration > 0 {
			rp.stats.kptMs = append(rp.stats.kptMs, ms(st.KPTDuration))
		}
		rp.stats.genMs = append(rp.stats.genMs, ms(st.GenDuration))
		rp.stats.thetas = append(rp.stats.thetas, float64(st.Theta))
		rp.stats.setsGen += float64(st.Theta)
		rp.stats.genSec += st.GenDuration.Seconds()
		e := st.Explored
		rp.stats.edges += float64(e.EdgesForward + e.EdgesBackward + e.EdgesBackwardFirst + e.EdgesSecondary)
	}
	if !built {
		return
	}
	// The built collections' footprint, read back through the index
	// outside any span. The read must hit: a miss means the requests
	// below no longer mirror the solver's.
	for _, req := range collectionRequests(op, g, rp.gap, rp.graphID(op.Graph)) {
		misses := rp.x.Stats().Misses
		col, err := rp.x.Collection(req)
		if err == nil && rp.x.Stats().Misses != misses {
			err = fmt.Errorf("footprint read of %s rebuilt the collection", req.Kind)
		}
		if err != nil {
			rp.mismatch("footprint", err)
			continue
		}
		if col.Len() == 0 {
			continue
		}
		rp.stats.bytesSet = append(rp.stats.bytesSet, float64(col.Bytes())/float64(col.Len()))
		if p := col.PostingsIndex(); p != nil {
			pb := 8*len(p.EdgeOff) + 4*len(p.Edges) + 8*len(p.NodeOff) + 4*len(p.Nodes)
			rp.stats.postingsSet = append(rp.stats.postingsSet, float64(pb)/float64(col.Len()))
		}
	}
}

// collectionRequests returns the collection requests a Q+ sandwich solve
// of op makes: the two SelfInfMax bounds (seeds cfg.Seed and cfg.Seed+1),
// or the CompInfMax upper bound.
func collectionRequests(op *Op, g *graph.Graph, gap core.GAP, graphID string) []rrset.CollectionRequest {
	cfg := solveConfig(op.Solve, nil, graphID)
	base := rrset.CollectionRequest{GraphID: graphID, Graph: g, K: cfg.K, Opts: cfg.TIM, Seed: cfg.Seed}
	if op.Route == routeComp {
		upper, err := sandwich.CompUpper(gap)
		if err != nil {
			return nil
		}
		base.Kind, base.GAP, base.Opposite = rrset.KindCIM, upper, op.Solve.SeedsA
		return []rrset.CollectionRequest{base}
	}
	lower, upper, err := sandwich.SelfBounds(gap)
	if err != nil {
		return nil
	}
	lo, up := base, base
	lo.Kind, lo.GAP, lo.Opposite = rrset.KindSIMPlus, lower, op.Solve.SeedsB
	up.Kind, up.GAP, up.Opposite, up.Seed = rrset.KindSIMPlus, upper, op.Solve.SeedsB, cfg.Seed+1
	return []rrset.CollectionRequest{lo, up}
}

// rtSampler samples the Go runtime and the server's index while a phase
// runs: GC CPU share, peak heap, peak index residency.
type rtSampler struct {
	stop        chan struct{}
	done        chan struct{}
	x           *server.Index
	heapPeak    float64
	residentMax int64
	gc0, tot0   float64
	gcShare     float64
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/memory/classes/heap/objects:bytes"}

func readRT() (gc, total, heap float64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return val(0), val(1), val(2)
}

func startSampler(x *server.Index) *rtSampler {
	rs := &rtSampler{stop: make(chan struct{}), done: make(chan struct{}), x: x}
	rs.gc0, rs.tot0, _ = readRT()
	go func() {
		defer close(rs.done)
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			_, _, heap := readRT()
			rs.heapPeak = max(rs.heapPeak, heap)
			if x != nil {
				rs.residentMax = max(rs.residentMax, x.Stats().ResidentBytes)
			}
			select {
			case <-rs.stop:
				return
			case <-t.C:
			}
		}
	}()
	return rs
}

func (rs *rtSampler) finish() {
	close(rs.stop)
	<-rs.done
	gc, tot, _ := readRT()
	if tot > rs.tot0 {
		rs.gcShare = (gc - rs.gc0) / (tot - rs.tot0)
	}
}

// runTraced is the --trace 1 run. It sets up and drives the workload
// twice on fresh servers with the same request sequences, each timed
// phase half of o.Seconds: untraced (for trace.overhead_pct, the runtime
// sampler and the index counters), then traced at the http and server
// layers. It then replays the traced phase's requests through the
// solver, index, rrset, montecarlo and graph layers on a private index,
// runs the oversize probe, writes the span file and prints the per-layer
// metrics.
func runTraced(w io.Writer, o Options, plan *Plan) (*Result, error) {
	res := &Result{Metrics: map[string]Metric{}}
	m := res.Metrics
	half := o
	half.Seconds = o.Seconds / 2

	// 1. Untraced phase, sampled.
	un, err := runPhaseSampled(half, plan)
	if err != nil {
		return nil, err
	}
	// 2. Traced phase.
	tr := newTracer()
	ph, err := runPhase(half, plan, 1, tr, "t", false)
	if err != nil {
		return nil, err
	}
	if err := ph.lv.stop(); err != nil {
		return nil, err
	}
	ph.lv = nil
	releaseMemory()
	setupFails, timed := checkAll(plan, ph)
	res.Failed += setupFails + un.failed
	res.Attempted += setupCount(ph) + un.attempted
	tracedGood := 0
	for c := range timed {
		for _, ck := range timed[c] {
			res.Attempted++
			if ck.Fail != nil {
				res.Failed++
				logFailure(fmt.Sprintf("traced client %d op %d (%s)", c, ck.Index, ck.Op.Route), ck.Fail)
			} else {
				tracedGood++
			}
		}
	}
	tracedOps := float64(tracedGood) / ph.elapsed.Seconds()

	// 3. Layer replay: set-up ops, then the traced phase's requests in
	// send order, round-robin over the clients.
	rp := newReplayer(plan, tr)
	for c := range plan.Setup {
		for i := range plan.Setup[c] {
			rp.replay(fmt.Sprintf("s%d.%d", c, i), &plan.Setup[c][i], nil)
		}
	}
	for i := 0; ; i++ {
		more := false
		for c := range timed {
			if i < len(timed[c]) {
				more = true
				ck := &timed[c][i]
				rp.replay(fmt.Sprintf("t%d.%d", c, i), ck.Op, ck.Reply)
			}
		}
		if !more {
			break
		}
	}
	res.Failed += rp.stats.mismatches
	res.Correct = res.Failed == 0

	// 4. Oversize and postings probe.
	probe, err := runProbe(plan.Graphs[firstGraph(plan)])
	if err != nil {
		return nil, err
	}

	// 5. Per-layer metrics.
	tr.link()
	var transport, handler, overhead, respBytes []float64
	byReq := map[string]*Span{}
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == "server.handler" {
			byReq[s.Req] = s
		}
	}
	replies := map[string]*checked{}
	for c := range timed {
		for i := range timed[c] {
			replies[fmt.Sprintf("t%d.%d", c, i)] = &timed[c][i]
		}
	}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Name != "http.request" || s.Req[0] != 't' {
			continue
		}
		h := byReq[s.Req]
		if h == nil {
			continue
		}
		transport = append(transport, s.dur()-h.dur())
		handler = append(handler, h.dur()/1000)
		respBytes = append(respBytes, h.Attrs["bytes"])
		switch r := replies[s.Req].Reply.(type) {
		case *solveReply:
			overhead = append(overhead, h.dur()-r.ElapsedMs*1000)
		case *estimateReply:
			overhead = append(overhead, h.dur()-r.ElapsedMs*1000)
		}
	}
	st := rp.stats
	m["http.transport_us"] = Metric{quantile(transport, 0.5), "us"}
	m["server.handler_p50_ms"] = Metric{quantile(handler, 0.5), "ms"}
	m["server.overhead_us"] = Metric{quantile(overhead, 0.5), "us"}
	m["server.response_bytes"] = Metric{quantile(respBytes, 0.5), "bytes"}
	hits, misses := un.after.Hits-un.before.Hits, un.after.Misses-un.before.Misses
	oh, om := un.after.OrderHits-un.before.OrderHits, un.after.OrderMisses-un.before.OrderMisses
	m["index.hit_ratio"] = Metric{ratio(hits, hits+misses), "ratio"}
	m["index.order_hit_ratio"] = Metric{ratio(oh, oh+om), "ratio"}
	m["index.lookup_hit_us"] = Metric{quantile(st.lookupHitUs, 0.5), "us"}
	m["index.build_ms"] = Metric{st.buildMs / float64(max(st.misses, 1)), "ms"}
	m["index.dedup_waits"] = Metric{float64(un.after.DedupWaits), "count"}
	m["index.evictions"] = Metric{float64(un.after.Evictions), "count"}
	m["index.resident_mb"] = Metric{float64(un.sampler.residentMax) / (1 << 20), "MB"}
	m["index.over_budget_mb"] = Metric{float64(max(un.sampler.residentMax-serverCacheBytes, 0)) / (1 << 20), "MB"}
	m["index.repair_ms"] = Metric{quantile(st.repairMs, 0.5), "ms"}
	m["index.repaired_sets"] = Metric{float64(un.after.RepairedSets) / float64(max(un.patches, 1)), "count"}
	m["index.repair_fallbacks"] = Metric{float64(un.after.RepairFallbacks), "count"}
	m["rrset.kpt_ms"] = Metric{quantile(st.kptMs, 0.5), "ms"}
	m["rrset.gen_ms"] = Metric{quantile(st.genMs, 0.5), "ms"}
	m["rrset.select_ms"] = Metric{quantile(st.selectMs, 0.5), "ms"}
	m["rrset.theta"] = Metric{quantile(st.thetas, 0.5), "count"}
	m["rrset.sets_per_s"] = Metric{st.setsGen / max(st.genSec, 1e-9), "1/s"}
	m["rrset.width_per_set"] = Metric{st.edges / max(st.setsGen, 1), "count"}
	m["rrset.bytes_per_set"] = Metric{quantile(st.bytesSet, 0.5), "bytes"}
	m["rrset.postings_bytes_per_set"] = Metric{quantile(st.postingsSet, 0.5), "bytes"}
	m["rrset.repair_dirty_frac"] = Metric{quantile(st.dirtyFrac, 0.5), "ratio"}
	m["rrset.cim_default_theta"] = Metric{float64(probe.CIMTheta), "count"}
	m["rrset.cim_default_projected_mb"] = Metric{probe.CIMProjectedMB, "MB"}
	m["rrset.postings_ratio.simplus"] = Metric{probe.RatioSIMPlus, "ratio"}
	m["rrset.postings_ratio.cim"] = Metric{probe.RatioCIM, "ratio"}
	m["solver.self_ms"] = Metric{quantile(st.solverSelfMs, 0.5), "ms"}
	m["montecarlo.estimate_ms"] = Metric{quantile(st.estimateMs, 0.5), "ms"}
	m["montecarlo.ns_per_adoption"] = Metric{quantile(st.nsPerAdoption, 0.5), "ns"}
	m["graph.apply_ms"] = Metric{quantile(st.applyMs, 0.5), "ms"}
	m["runtime.gc_cpu_share"] = Metric{un.sampler.gcShare, "ratio"}
	m["runtime.heap_peak_mb"] = Metric{un.sampler.heapPeak / (1 << 20), "MB"}
	m["trace.overhead_pct"] = Metric{100 * (un.opsPerS - tracedOps) / un.opsPerS, "%"}

	spans := o.Spans
	if spans == "" {
		spans = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", o.Workload, o.Seed))
	}
	if err := tr.write(spans, o); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "traced run %s seed %d: untraced %.2f req/s, traced %.2f req/s, %d spans in %s\n",
		o.Workload, o.Seed, un.opsPerS, tracedOps, len(tr.spans), spans)
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-32s %.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(w, "  oracle %s: %d replies checked, every traced reply recomputed through the layer replay (%d mismatches)\n",
		verdict(res.Correct), res.Attempted, st.mismatches)
	return res, nil
}

// sampledPhase is the traced run's untraced half.
type sampledPhase struct {
	opsPerS   float64
	before    server.IndexStats // index counters when the timed phase starts
	after     server.IndexStats // and when it ends
	sampler   *rtSampler
	patches   int // set-up patches included
	attempted int
	failed    int
}

func runPhaseSampled(o Options, plan *Plan) (*sampledPhase, error) {
	ph, err := runPhase(o, plan, 1, nil, "u", true)
	if err != nil {
		return nil, err
	}
	if err := ph.lv.stop(); err != nil {
		return nil, err
	}
	ph.lv = nil
	releaseMemory()
	out := &sampledPhase{before: ph.idxBefore, after: ph.idxAfter, sampler: ph.sampler}
	setupFails, timed := checkAll(plan, ph)
	out.failed = setupFails
	out.attempted = setupCount(ph)
	for _, rep := range ph.setup {
		for _, s := range rep {
			if s.Op.Route == routePatch {
				out.patches++
			}
		}
	}
	good := 0
	for c := range timed {
		for _, ck := range timed[c] {
			out.attempted++
			if ck.Fail != nil {
				out.failed++
			} else {
				good++
			}
			if ck.Op.Route == routePatch {
				out.patches++
			}
		}
	}
	out.opsPerS = float64(good) / ph.elapsed.Seconds()
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortedKeys(m map[string]Metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
