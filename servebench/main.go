// Command servebench is the serving benchmark: it stands up an in-process
// comic server on a 127.0.0.1 listener with program defaults, drives one
// workload with two closed-loop clients, checks every reply, and prints
// each end-to-end metric by name with its unit. With --trace 1 it instead
// replays the same request sequences with spans around every layer and
// prints the per-layer metrics. See README.md.
//
//	servebench --workload warm-eval --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"comic/internal/datasets"
	"comic/internal/server"
)

// commit identifies the source tree the binary was built from; run.sh
// sets it at link time.
var commit = "unknown"

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options are the command-line settings of one run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Setups   int    // set-ups per run; setup_s is their median
	Spans    string // span file of a traced run; "" means the default path
}

func main() {
	var o Options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload to run: warm-eval, cold-build, patch-mix, or all")
	flag.Uint64Var(&o.Seed, "seed", 1, "workload seed; the same seed sends the same requests")
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics instead of end-to-end ones")
	flag.Parse()
	o.Trace = trace == 1
	if flag.NArg() > 0 || o.Workload == "" || o.Seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{o.Workload}
	if o.Workload == "all" {
		names = workloadNames
	}
	// A printed result line carries the verdict in "correct"; the exit
	// code is non-zero only when no result could be produced.
	for _, name := range names {
		wo := o
		wo.Workload = name
		wo.Setups = defaultSetups(name)
		res, err := run(os.Stdout, wo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
}

// defaultSetups is how many set-ups a run makes for its setup_s median:
// more where a set-up is short and so relatively noisier.
func defaultSetups(workload string) int {
	if workload == "cold-build" {
		return 5
	}
	return 3
}

// run executes one workload run and returns its result line; the report
// lines before it go to w.
func run(w io.Writer, o Options) (*Result, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	plan, err := newPlan(o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	prefill := int(math.Ceil(o.Seconds * prefillRate))
	for c := 0; c < clients; c++ {
		plan.Timed[c].At(prefill - 1)
	}
	printFingerprint(w, o)
	if o.Trace {
		return runTraced(w, o, plan)
	}
	return runUntraced(w, o, plan)
}

// phase is one set-up plus timed phase on a fresh server.
type phase struct {
	setup   [][]Sample // one list per set-up repetition
	setupS  []float64
	timed   [clients][]Sample
	elapsed time.Duration
	peakRSS float64
	lv      *live
	// Sampled phases only: the runtime/index sampler over the timed
	// phase and the index counters around it.
	sampler             *rtSampler
	idxBefore, idxAfter server.IndexStats
}

// runPhase sets a fresh server up `setups` times (keeping the last), then
// drives the timed phase for o.Seconds. hooks (nil when untraced) records
// spans; tag prefixes the timed requests' ids; sample runs the
// runtime/index sampler over the timed phase.
func runPhase(o Options, plan *Plan, setups int, hooks *tracer, tag string, sample bool) (*phase, error) {
	ph := &phase{}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for rep := 0; rep < setups; rep++ {
		if ph.lv != nil {
			if err := ph.lv.stop(); err != nil {
				return nil, err
			}
			ph.lv = nil
			hc.CloseIdleConnections()
			releaseMemory()
		}
		t0 := time.Now()
		graphs := make(map[string]*datasets.Dataset, len(plan.Graphs))
		for name := range plan.Graphs {
			graphs[name] = newDataset()
		}
		lv, err := startServer(graphs, hooks.wrapper())
		if err != nil {
			return nil, err
		}
		ph.lv = lv
		ph.setup = append(ph.setup, runSetupOps(hc, lv.base, &plan.Setup, hooks))
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
	}
	// Every timed phase starts with the set-up's garbage collected, so
	// when the first collection falls in it does not depend on the set-up.
	runtime.GC()
	if sample {
		ph.idxBefore = ph.lv.srv.Index().Stats()
		ph.sampler = startSampler(ph.lv.srv.Index())
	}
	ph.timed, ph.elapsed = runClosedLoop(hc, ph.lv.base, plan.Timed, time.Duration(o.Seconds*float64(time.Second)), tag, hooks)
	ph.peakRSS = peakRSSMB()
	if sample {
		ph.sampler.finish()
		ph.idxAfter = ph.lv.srv.Index().Stats()
	}
	return ph, nil
}

// releaseMemory returns a stopped server's heap to the OS so the next
// set-up starts from the same footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// checkAll runs the per-reply oracle over a phase's set-up and timed
// replies.
func checkAll(p *Plan, ph *phase) (setupFails int, timed [clients][]checked) {
	n := p.Graphs[firstGraph(p)].Graph.N()
	for _, rep := range ph.setup {
		for i := range rep {
			if _, err := checkReply(&rep[i], n); err != nil {
				setupFails++
				logFailure(fmt.Sprintf("set-up %s #%d", rep[i].Op.Route, rep[i].Index), err)
			}
		}
	}
	for c := range ph.timed {
		for _, s := range ph.timed[c] {
			ck := checked{Sample: s}
			ck.Reply, ck.Fail = checkReply(&ck.Sample, n)
			timed[c] = append(timed[c], ck)
		}
	}
	return setupFails, timed
}

func runUntraced(w io.Writer, o Options, plan *Plan) (*Result, error) {
	ph, err := runPhase(o, plan, o.Setups, nil, "t", false)
	if err != nil {
		return nil, err
	}
	if err := ph.lv.stop(); err != nil {
		return nil, err
	}
	ph.lv = nil
	releaseMemory()
	setupFails, timed := checkAll(plan, ph)
	recomputed := deepOracle(plan, timed)

	res := &Result{Metrics: map[string]Metric{}}
	for _, rep := range ph.setup {
		res.Attempted += len(rep)
	}
	res.Failed = setupFails
	lat := map[string][]float64{}
	good := 0
	for c := range timed {
		for _, ck := range timed[c] {
			res.Attempted++
			if ck.Fail != nil {
				res.Failed++
				logFailure(fmt.Sprintf("client %d op %d (%s)", c, ck.Index, ck.Op.Route), ck.Fail)
			} else {
				good++
			}
			lat[latencyClass(ck.Op.Route)] = append(lat[latencyClass(ck.Op.Route)], ms(ck.Dur))
		}
	}
	res.Correct = res.Failed == 0 && recomputed > 0
	m := res.Metrics
	m["setup_s"] = Metric{median(ph.setupS), "s"}
	m["ops_per_s"] = Metric{float64(good) / ph.elapsed.Seconds(), "req/s"}
	m["solve_p50_ms"] = Metric{quantile(lat["solve"], 0.5), "ms"}
	m["solve_p90_ms"] = Metric{quantile(lat["solve"], 0.9), "ms"}
	m["peak_rss_mb"] = Metric{ph.peakRSS, "MB"}

	// The report: every end-to-end metric README.md lists, those the
	// workload has no traffic for marked n/a, with sample counts.
	fmt.Fprintf(w, "workload %s seed %d: %.1fs timed, %d clients closed-loop\n", o.Workload, o.Seed, ph.elapsed.Seconds(), clients)
	fmt.Fprintf(w, "  setup_s            %.4f s (median of %d: %s)\n", m["setup_s"].Value, len(ph.setupS), fmtList(ph.setupS))
	fmt.Fprintf(w, "  ops_per_s          %.2f req/s (%d good of %d)\n", m["ops_per_s"].Value, good, res.Attempted-setupCount(ph))
	for _, class := range []string{"solve", "estimate", "patch"} {
		xs := lat[class]
		if len(xs) == 0 {
			fmt.Fprintf(w, "  %-18s n/a ms (no %s requests in this workload)\n", class+"_p50_ms", class)
			fmt.Fprintf(w, "  %-18s n/a ms\n", class+"_p90_ms")
			continue
		}
		floor := ""
		if len(xs) < minSamples {
			floor = fmt.Sprintf(", below the %d-sample floor", minSamples)
		}
		fmt.Fprintf(w, "  %-18s %.3f ms (n=%d%s)\n", class+"_p50_ms", quantile(xs, 0.5), len(xs), floor)
		fmt.Fprintf(w, "  %-18s %.3f ms (n=%d, %d beyond%s)\n", class+"_p90_ms", quantile(xs, 0.9), len(xs), len(xs)-int(0.9*float64(len(xs))+0.999), floor)
	}
	if n := len(lat["solve"]); n < minSamples {
		fmt.Fprintf(os.Stderr, "servebench: warning: %d solve samples, below the %d-sample floor: solve_p90_ms has fewer than ten beyond it\n", n, minSamples)
	}
	win := windowRates(timed, ph.elapsed)
	fmt.Fprintf(w, "  per-second rate    min %.2f median %.2f max %.2f req/s over %d windows\n",
		quantile(win, 0), median(win), quantile(win, 1), len(win))
	fmt.Fprintf(w, "  error_rate         %.4f failed/attempted (%d/%d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	fmt.Fprintf(w, "  peak_rss_mb        %.1f MB\n", m["peak_rss_mb"].Value)
	fmt.Fprintf(w, "  oracle             %s: %d replies checked, %d recomputed through the solver with a private index\n",
		verdict(res.Correct), res.Attempted, recomputed)
	return res, nil
}

// minSamples is the per-run sample floor of a latency class: with 100,
// p90 has at least ten samples beyond it. A run below it is flagged.
const minSamples = 100

// failuresLogged caps the failures written to stderr per process.
var failuresLogged int

func logFailure(what string, err error) {
	if failuresLogged++; failuresLogged <= 10 {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", what, err)
	}
}

// windowRates returns the good replies completed in each whole second
// of the timed phase.
func windowRates(timed [clients][]checked, elapsed time.Duration) []float64 {
	var start time.Time
	for c := range timed {
		if len(timed[c]) > 0 && (start.IsZero() || timed[c][0].Start.Before(start)) {
			start = timed[c][0].Start
		}
	}
	rates := make([]float64, int(elapsed/time.Second))
	for c := range timed {
		for _, ck := range timed[c] {
			if i := int(ck.Start.Add(ck.Dur).Sub(start) / time.Second); ck.Fail == nil && i < len(rates) {
				rates[i]++
			}
		}
	}
	return rates
}

func setupCount(ph *phase) int {
	n := 0
	for _, rep := range ph.setup {
		n += len(rep)
	}
	return n
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// latencyClass maps a route to the latency metric family it reports under.
func latencyClass(route string) string {
	switch route {
	case routeSelf, routeComp:
		return "solve"
	case routeSpread, routeBoost:
		return "estimate"
	}
	return "patch"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
