package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"comic/internal/experiments"
	"comic/internal/stats"
)

func tinyConfig() experiments.Config {
	return experiments.Config{
		Scale:        0.01,
		Seed:         7,
		K:            3,
		OppositeSize: 5,
		MCRuns:       100,
		FixedTheta:   300,
		DatasetNames: []string{"Flixster"},
	}
}

// runTables runs a paper table or figure id through the experiment table.
func runTables(id string, cfg experiments.Config) ([]*stats.Table, error) {
	e, ok := lookup(id)
	if !ok || e.tables == nil {
		return nil, fmt.Errorf("%q is not a table or figure id", id)
	}
	return e.tables(cfg)
}

func TestRunAllIDs(t *testing.T) {
	ids := []string{"table1", "table2", "table3", "table4", "table5-7", "table8",
		"fig5", "fig6", "fig7a", "fig8"}
	for _, id := range ids {
		tables, err := runTables(id, tinyConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tab := range tables {
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("%s render: %v", id, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s rendered empty output", id)
			}
		}
	}
}

func TestRunFig4(t *testing.T) {
	cfg := tinyConfig()
	cfg.FixedTheta = 0
	cfg.MaxTheta = 5000
	tables, err := runTables("fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("fig4 tables = %d", len(tables))
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := selectExperiments("table99", ""); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestJSONNeedsARecord pins the -json usage rule: only the trajectory ids
// write a record, so -json with a table or figure id (or all) is rejected
// before anything runs instead of being silently ignored.
func TestJSONNeedsARecord(t *testing.T) {
	for _, id := range []string{"table2", "table5", "fig4", "all"} {
		if _, err := selectExperiments(id, "out.json"); err == nil {
			t.Errorf("-exp %s -json accepted", id)
		}
		if _, err := selectExperiments(id, ""); err != nil {
			t.Errorf("-exp %s without -json rejected: %v", id, err)
		}
	}
	for _, id := range []string{"selfinfmax", "batch", "restore", "regimes", "warmpath", "stream", "cluster"} {
		todo, err := selectExperiments(id, "out.json")
		if err != nil || len(todo) != 1 || todo[0].record == nil {
			t.Errorf("-exp %s -json = %v, %v; want its record experiment", id, todo, err)
		}
	}
}

// TestTrajectoryExperiments runs the trajectory experiments that have no
// dedicated test through the experiment table: each must return a record
// headed by its own id, write it through writeRecord, and pass -check
// against itself. cluster is left out: under -race it takes about 20 s,
// and its 2.5x busy-time speedup floor is a timing ratio that a loaded
// machine can miss (it read 2.50x in one of three -race runs), so its
// trajectory step in CI gates it instead.
func TestTrajectoryExperiments(t *testing.T) {
	for _, id := range []string{"warmpath", "regimes", "stream"} {
		t.Run(id, func(t *testing.T) {
			e, ok := lookup(id)
			if !ok || e.record == nil {
				t.Fatalf("%s is not a trajectory experiment", id)
			}
			rec, err := e.record(tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "BENCH_"+id+".json")
			if werr := writeRecord(path, rec); werr != nil {
				t.Fatal(werr)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var head benchHeader
			if uerr := json.Unmarshal(data, &head); uerr != nil || head.Experiment != id {
				t.Fatalf("record header = %+v, %v; want experiment %q", head, uerr, id)
			}
			var out, errOut bytes.Buffer
			if cerr := runCheck(path, path, &out, &errOut); cerr != nil {
				t.Fatal(cerr)
			}
		})
	}
}

func TestBatchBenchRecord(t *testing.T) {
	cfg := tinyConfig()
	rec, err := runBatchBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BatchNs <= 0 || rec.SequentialNs <= 0 {
		t.Fatalf("benchmark record has empty measurements: %+v", rec)
	}
	// The B-indifferent k-sweep contract: exactly one build, the other
	// k−1 queries answered warm — on both execution paths.
	if rec.BatchBuilds != 1 || rec.BatchHits != int64(rec.SweepK-1) {
		t.Fatalf("batch sweep = %d builds / %d hits, want 1 / %d", rec.BatchBuilds, rec.BatchHits, rec.SweepK-1)
	}
	if rec.SequentialBuilds != 1 || rec.SequentialHits != int64(rec.SweepK-1) {
		t.Fatalf("sequential sweep = %d builds / %d hits, want 1 / %d", rec.SequentialBuilds, rec.SequentialHits, rec.SweepK-1)
	}
	if len(rec.Seeds) != rec.SweepK {
		t.Fatalf("got %d seeds, want %d", len(rec.Seeds), rec.SweepK)
	}

	path := filepath.Join(t.TempDir(), "BENCH_batch.json")
	if rerr := writeRecord(path, rec); rerr != nil {
		t.Fatal(rerr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back batchBenchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("bad JSON in %s: %v", path, err)
	}
	if back.Experiment != "batch" || back.BatchNs != rec.BatchNs || back.SweepK != rec.SweepK {
		t.Fatalf("round-tripped record differs: %+v vs %+v", back, *rec)
	}
}

func TestSelfInfMaxBenchRecord(t *testing.T) {
	cfg := tinyConfig()
	rec, err := runSelfInfMaxBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Theta <= 0 || rec.ColdNs <= 0 || rec.WarmNs <= 0 || rec.GenNs <= 0 {
		t.Fatalf("benchmark record has empty measurements: %+v", rec)
	}
	if rec.CollectionBytes <= 0 {
		t.Fatalf("collectionBytes = %d, want > 0", rec.CollectionBytes)
	}
	if len(rec.Seeds) != cfg.K {
		t.Fatalf("got %d seeds, want %d", len(rec.Seeds), cfg.K)
	}
	// FixedTheta was set, so no KPT phase ran.
	if rec.KPTNs != 0 {
		t.Fatalf("kptNs = %d with FixedTheta set, want 0", rec.KPTNs)
	}

	path := filepath.Join(t.TempDir(), "BENCH_selfinfmax.json")
	if rerr := writeRecord(path, rec); rerr != nil {
		t.Fatal(rerr)
	}
	if rec.summary() == "" {
		t.Fatal("render printed nothing")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("bad JSON in %s: %v", path, err)
	}
	if back.Experiment != "selfinfmax" || back.Theta != rec.Theta ||
		back.ColdNs != rec.ColdNs || back.CollectionBytes != rec.CollectionBytes {
		t.Fatalf("round-tripped record differs: %+v vs %+v", back, *rec)
	}
}
