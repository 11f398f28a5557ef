package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/rrset"
	"comic/internal/sandwich"
)

// printFingerprint records what the numbers were measured on.
func printFingerprint(w io.Writer, o Options) {
	fmt.Fprintf(w, "fingerprint: workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s\n",
		o.Workload, o.Seed, o.Seconds, o.Trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns freed heap to the OS and resets the process's
// resident-set high-water mark (VmHWM) to its current size, so that a
// run's peak_rss_mb is its own even after an earlier run in the same
// process peaked higher.
func resetPeakRSS() error {
	releaseMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Oversize probe settings: the ε-driven compinfmax cold-build cannot send
// (k 10, the default ε), and the θ of the small fixed-θ builds that
// measure bytes per set.
const (
	probeK     = 10
	probeEps   = 0.5 // the rrset.Options default (internal/rrset/tim.go) runSolve keeps when a request gives no epsilon
	probeTheta = 2000
	probeSeed  = 1
)

// probeResult holds the oversize and postings probe numbers.
type probeResult struct {
	CIMTheta       int
	CIMProjectedMB float64
	RatioSIMPlus   float64
	RatioCIM       float64
}

// runProbe sizes the ε-driven /v1/compinfmax without building it: θ from
// rrset.EstimateKPT, Lambda and Theta on RR-CIM, times the bytes per set
// of a small fixed-θ build with postings on (the server's default). It
// also measures the postings on/off byte ratio of RR-SIM+ and RR-CIM.
func runProbe(d *datasets.Dataset) (probeResult, error) {
	var pr probeResult
	g := d.Graph
	opposite := graph.TopKByDegree(g, oppositeSize)
	upper, err := sandwich.CompUpper(d.GAP)
	if err != nil {
		return pr, err
	}
	gen, err := rrset.NewCIM(g, upper, opposite)
	if err != nil {
		return pr, err
	}
	// BuildCollection's KPT stream (seed^0x5bf03635, copied from
	// internal/rrset/collection.go) and defaults, so θ is exactly what an
	// ε-driven build would generate.
	kpt := rrset.EstimateKPT(gen, g.M(), probeK, 1, probeSeed^0x5bf03635, 0)
	pr.CIMTheta = rrset.Theta(rrset.Lambda(g.N(), probeK, probeEps, 1), kpt, serverMaxTheta)

	lower, _, err := sandwich.SelfBounds(d.GAP)
	if err != nil {
		return pr, err
	}
	perSet := func(req rrset.CollectionRequest) (on, off float64, err error) {
		req.Graph, req.K, req.Seed = g, probeK, probeSeed
		req.Opts.FixedTheta = probeTheta
		req.Opts.RecordPostings = true
		colOn, err := req.Build()
		if err != nil {
			return 0, 0, err
		}
		req.Opts.RecordPostings = false
		colOff, err := req.Build()
		if err != nil {
			return 0, 0, err
		}
		return float64(colOn.Bytes()) / probeTheta, float64(colOff.Bytes()) / probeTheta, nil
	}
	cimOn, cimOff, err := perSet(rrset.CollectionRequest{Kind: rrset.KindCIM, GAP: upper, Opposite: opposite})
	if err != nil {
		return pr, err
	}
	spOn, spOff, err := perSet(rrset.CollectionRequest{Kind: rrset.KindSIMPlus, GAP: lower, Opposite: opposite})
	if err != nil {
		return pr, err
	}
	pr.CIMProjectedMB = float64(pr.CIMTheta) * cimOn / 1e6
	pr.RatioCIM = cimOn / cimOff
	pr.RatioSIMPlus = spOn / spOff
	return pr, nil
}
