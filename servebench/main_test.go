package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comic/internal/datasets"
	"comic/internal/server"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEveryWorkload runs each declared workload for a second,
// untraced and traced, and checks that every declared metric is emitted
// with its declared unit and that the run is correct.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := Options{Workload: w, Seed: 3, Seconds: 1, Trace: traced, Setups: 1,
				Spans: filepath.Join(t.TempDir(), "spans.json")}
			var out bytes.Buffer
			res, err := run(&out, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, traced, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(o.Spans); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
			}
		}
	}
}

// planBytes renders everything a plan sends: set-up and the first n
// timed ops of each client.
func planBytes(p *Plan, n int) []byte {
	var b bytes.Buffer
	for c := 0; c < clients; c++ {
		for _, op := range p.Setup[c] {
			b.WriteString(op.Method() + " " + op.Path() + " ")
			b.Write(op.Body)
			b.WriteByte('\n')
		}
		for i := 0; i < n; i++ {
			op := p.Timed[c].At(i)
			b.WriteString(op.Method() + " " + op.Path() + " ")
			b.Write(op.Body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// TestGeneratorDeterministic checks that the request generator is
// byte-deterministic in the seed, and that another seed sends other
// requests.
func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		gen := func(seed uint64) []byte {
			p, err := newPlan(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return planBytes(p, 60)
		}
		a, b, other := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different requests", w)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 send the same requests", w)
		}
	}
}

// TestOracleRejectsCorruptedReply serves one real solve in process, checks
// that both oracles accept it, then corrupts it in several ways and checks
// that each corruption is rejected.
func TestOracleRejectsCorruptedReply(t *testing.T) {
	p, err := newPlan("warm-eval", 5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Datasets: map[string]*datasets.Dataset{"flixster": newDataset()}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	op := p.Timed[0].At(0)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(op.Method(), op.Path(), bytes.NewReader(op.Body)))
	good := Sample{Op: op, Status: rec.Code, Body: rec.Body.Bytes()}
	n := p.Graphs["flixster"].Graph.N()

	verdicts := func(s Sample) (perReply, deep error) {
		reply, err := checkReply(&s, n)
		if err != nil {
			return err, nil
		}
		var results [clients][]checked
		results[0] = []checked{{Sample: s, Reply: reply}}
		deepOracle(p, results)
		return nil, results[0][0].Fail
	}
	if a, b := verdicts(good); a != nil || b != nil {
		t.Fatalf("oracle rejects a good reply: %v / %v", a, b)
	}

	corrupt := func(edit func(r *solveReply)) Sample {
		var r solveReply
		if err := json.Unmarshal(good.Body, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		s := good
		s.Body = mustJSON(r)
		return s
	}
	cases := map[string]Sample{
		"status 500":      {Op: op, Status: http.StatusInternalServerError, Body: good.Body},
		"truncated body":  {Op: op, Status: 200, Body: good.Body[:len(good.Body)/2]},
		"repeated seed":   corrupt(func(r *solveReply) { r.Seeds[1] = r.Seeds[0] }),
		"short seed set":  corrupt(func(r *solveReply) { r.Seeds = r.Seeds[1:] }),
		"wrong k":         corrupt(func(r *solveReply) { r.K++ }),
		"other seed":      corrupt(func(r *solveReply) { r.Seeds[0] = (r.Seeds[0] + 1) % int32(n) }),
		"drifted object.": corrupt(func(r *solveReply) { r.Objective = math.Nextafter(r.Objective, 0) }),
		"other plan":      corrupt(func(r *solveReply) { r.Plan.Algorithm = "mc-greedy" }),
	}
	for name, s := range cases {
		if a, b := verdicts(s); a == nil && b == nil {
			t.Errorf("%s: corrupted reply accepted", name)
		}
	}
}

// TestPeakRSSIsPerRun runs two workloads in one process, the second with
// a much smaller footprint, and checks that the second's peak_rss_mb is
// its own rather than the first's high-water mark.
func TestPeakRSSIsPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	peak := func(w string) float64 {
		res, err := run(io.Discard, Options{Workload: w, Seed: 3, Seconds: 1, Setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["peak_rss_mb"].Value
	}
	big := peak("warm-eval")    // eight warm shapes resident: about 900 MB
	small := peak("cold-build") // a handful of cold solves: about 350 MB
	// Carried over, the reading would be warm-eval's, give or take a few
	// pages.
	if small >= 0.75*big {
		t.Errorf("cold-build after warm-eval: peak_rss_mb %.1f MB, near warm-eval's %.1f MB; the high-water mark carried over", small, big)
	}
}
