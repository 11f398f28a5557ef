// Command comic-bench regenerates the paper's tables and figures, and
// benchmarks the serving-path solve.
//
// Usage:
//
//	comic-bench -exp table2 -scale 0.05
//	comic-bench -exp all -scale 0.05 -mc 2000
//	comic-bench -exp fig7b -scale 0.02
//	comic-bench -exp selfinfmax -scale 0.02 -json BENCH_selfinfmax.json
//	comic-bench -exp batch -scale 0.02 -json BENCH_batch.json
//	comic-bench -exp restore -scale 0.02 -json BENCH_restore.json
//	comic-bench -exp regimes -scale 0.02 -json BENCH_regimes.json
//	comic-bench -exp warmpath -scale 0.02 -json BENCH_warmpath.json
//	comic-bench -exp stream -scale 0.02 -json BENCH_stream.json
//	comic-bench -exp cluster -scale 0.02 -mc 200 -json BENCH_cluster.json
//	comic-bench -check fresh.json BENCH_selfinfmax.json
//
// Experiment ids: table1, table2, table3, table4, table5-7, table8, fig4,
// fig5, fig6, fig7a, fig7b, fig8, selfinfmax, batch, restore, regimes,
// warmpath, stream, cluster, all. At -scale 1 the datasets match the paper's
// Table 1 sizes (slow on a laptop); the default 0.05 reproduces the shapes
// in minutes. The paper ids (and all) print tables; the serving-path ids
// print a summary and, with -json FILE, write their trajectory record.
// -json with a paper id is a usage error.
//
// The selfinfmax experiment times one cold and one warm SelfInfMax solve
// against a shared RR-set index and, with -json FILE, writes a
// machine-readable record (θ, KPT/generation/selection durations, resident
// collection bytes, cold/warm ns per solve) so the serving path's
// performance trajectory can be tracked PR-over-PR; CI runs it as a smoke
// test on the small synthetic graph.
//
// The batch experiment runs a SelfInfMax k-sweep (k = 1..K, the shape of
// the paper's §7.3 seed-budget experiments) through POST /v1/batch and as
// K sequential requests, verifying both return identical seeds and
// recording the wall-time and build/hit amortization; CI runs it alongside
// the selfinfmax record.
//
// The restore experiment exercises the persistent state layer: cold solve
// on a stateful server, SaveState snapshot, simulated restart, warm solve
// from the restored RR-set index. The run fails if the restored seeds
// diverge from the cold ones or the restored server builds any collection.
//
// The warmpath experiment pins the memoized CELF seed orderings: it times
// the one-time ordering build on a cold solve against the O(k) prefix
// slice a warm solve pays (the sub-millisecond path), records the exact
// order bytes and hit/miss counters, and runs a fixed-θ k-sweep whose
// per-k selections — one collection build, one ordering build, every k a
// prefix of the same ordering — are all pinned in the committed record.
//
// The regimes experiment runs one cold SelfInfMax solve per GAP regime —
// the full partition the regime-aware planner routes on — recording the
// chosen plan (regime, algorithm, guarantee), the selected seeds, and the
// cold timing per regime, and failing on any seed divergence between two
// identical cold solves. The committed BENCH_regimes.json pins every
// route's output, so a routing change can never land silently.
//
// The stream experiment pins the incremental RR-set maintenance path: one
// ε-driven collection built with postings, a deterministic 1%-of-edges
// reweight batch over the hub in-edges (the streaming steady state), and
// a Repair that must be identical, field for field (sets, postings, θ,
// KPT), to a cold rebuild on the patched graph at worker counts 1, 2, and 7, while
// dirtying less than 20% of the sets. The committed record pins the batch
// composition, θ trajectory, repair accounting, and post-repair seeds.
//
// The cluster experiment stands up a three-node in-process comic-serve
// cluster over a shared snapshot store and pins the sharded serving path:
// consistent-hash placement (the ownership maps are deterministic and
// committed), proxied-solve byte parity against the owner's answer,
// router singleflight collapse, busy-time throughput scaling — the run
// fails below 2.5x on three nodes versus one — and a zero-rebuild
// rebalance: when a member leaves, its graphs' warm cache entries move to
// the survivors through the store, with the published/adopted entry
// counts pinned and the survivors' collection-build count pinned at zero.
//
// -check compares a freshly generated record (first argument) against the
// committed trajectory file (second argument): deterministic fields —
// seeds, θ, build counts, exact byte sizes — must match bit-for-bit, while
// timing fields (keys ending in "Ns") only warn, since shared CI runners
// are noisy. CI runs every benchmark experiment and checks each against
// its committed BENCH_*.json, so the performance trajectory in the repo
// can never silently drift from what the code actually does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"comic/internal/experiments"
	"comic/internal/stats"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id: "+strings.Join(experimentIDs(), ", ")+", or all (every paper table and figure)")
		scale      = flag.Float64("scale", 0.05, "dataset scale in (0, 1]")
		seed       = flag.Uint64("seed", 42, "master random seed")
		mcRuns     = flag.Int("mc", 2000, "Monte-Carlo evaluation runs per seed set")
		k          = flag.Int("k", 0, "seed budget (0 = paper's 50, scaled)")
		opp        = flag.Int("opposite", 0, "opposite seed set size (0 = paper's 100, scaled)")
		epsilon    = flag.Float64("epsilon", 0.5, "TIM epsilon")
		fixedTheta = flag.Int("theta", 0, "fixed RR-set budget (0 = epsilon-driven)")
		greedy     = flag.Bool("greedy", false, "include the Monte-Carlo Greedy baseline (slow)")
		dsets      = flag.String("datasets", "", "comma-separated dataset subset (default all)")
		jsonOut    = flag.String("json", "", "write the trajectory record of a serving-path experiment to this file")
		check      = flag.Bool("check", false, "compare a fresh benchmark JSON (first arg) against a committed trajectory file (second arg); timings warn-only")
	)
	flag.Parse()

	if *check {
		args := flag.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: comic-bench -check FRESH.json COMMITTED.json")
			os.Exit(2)
		}
		if err := runCheck(args[0], args[1], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "comic-bench: check: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{
		Scale:         *scale,
		Seed:          *seed,
		MCRuns:        *mcRuns,
		K:             *k,
		OppositeSize:  *opp,
		Epsilon:       *epsilon,
		FixedTheta:    *fixedTheta,
		IncludeGreedy: *greedy,
	}
	if *dsets != "" {
		cfg.DatasetNames = strings.Split(*dsets, ",")
	}

	todo, err := selectExperiments(*exp, *jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "comic-bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	for _, e := range todo {
		if err := e.execute(cfg, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "comic-bench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
}

// experiment is one -exp id. Exactly one of tables (the paper's tables and
// figures) and record (the serving-path trajectory experiments) is set.
type experiment struct {
	id     string
	tables func(experiments.Config) ([]*stats.Table, error)
	record func(experiments.Config) (record, error)
}

// record is a trajectory experiment's output: it prints a human-readable
// summary and is written verbatim as JSON by -json.
type record interface {
	summary() string
}

// experimentTable lists every -exp id in usage order; "all" runs the
// entries with tables.
var experimentTable = []experiment{
	{id: "table1", tables: oneTable(experiments.Table1)},
	{id: "table2", tables: manyTables(experiments.Table2)},
	{id: "table3", tables: manyTables(experiments.Table3)},
	{id: "table4", tables: manyTables(experiments.Table4)},
	{id: "table5-7", tables: oneTable(experiments.Table5to7)},
	{id: "table8", tables: oneTable(experiments.Table8)},
	{id: "fig4", tables: oneTable(func(cfg experiments.Config) (*experiments.Figure4Result, error) {
		return experiments.Figure4(cfg, nil)
	})},
	{id: "fig5", tables: oneTable(experiments.Figure5)},
	{id: "fig6", tables: figure6},
	{id: "fig7a", tables: oneTable(experiments.Figure7Time)},
	{id: "fig7b", tables: oneTable(func(cfg experiments.Config) (*experiments.Figure7ScaleResult, error) {
		return experiments.Figure7Scale(cfg, nil)
	})},
	{id: "fig8", tables: oneTable(experiments.Figure8)},
	{id: "selfinfmax", record: asRecord(runSelfInfMaxBench)},
	{id: "batch", record: asRecord(runBatchBench)},
	{id: "restore", record: asRecord(runRestoreBench)},
	{id: "regimes", record: asRecord(runRegimesBench)},
	{id: "warmpath", record: asRecord(runWarmPathBench)},
	{id: "stream", record: asRecord(runStreamBench)},
	{id: "cluster", record: asRecord(runClusterBench)},
}

// experimentAliases are the accepted spellings of one combined table.
var experimentAliases = map[string]string{"table5": "table5-7", "table6": "table5-7", "table7": "table5-7"}

func experimentIDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// lookup resolves an -exp id, or an alias of one, to its table entry.
func lookup(id string) (experiment, bool) {
	if canon, ok := experimentAliases[id]; ok {
		id = canon
	}
	for _, e := range experimentTable {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// selectExperiments resolves -exp to the entries to run, rejecting an
// unknown id and a -json path for an id that produces no record.
func selectExperiments(id, jsonPath string) ([]experiment, error) {
	var todo []experiment
	if id == "all" {
		for _, e := range experimentTable {
			if e.tables != nil {
				todo = append(todo, e)
			}
		}
	} else if e, ok := lookup(id); ok {
		todo = []experiment{e}
	} else {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	if jsonPath != "" && todo[0].record == nil {
		return nil, fmt.Errorf("-json needs a trajectory experiment; %q writes no record", id)
	}
	return todo, nil
}

// execute runs e and prints its tables or its record summary to stdout;
// for a record and a non-empty jsonPath it also writes the record there.
func (e experiment) execute(cfg experiments.Config, jsonPath string) error {
	if e.record != nil {
		rec, err := e.record(cfg)
		if err != nil {
			return err
		}
		if _, err := fmt.Print(rec.summary()); err != nil {
			return err
		}
		if jsonPath == "" {
			return nil
		}
		return writeRecord(jsonPath, rec)
	}
	start := time.Now()
	tables, err := e.tables(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Printf("[%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeRecord writes rec to path as indented JSON with a trailing newline,
// the byte format of the committed BENCH_*.json files.
func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// asRecord adapts a trajectory experiment's typed run function to the table.
func asRecord[R record](run func(experiments.Config) (R, error)) func(experiments.Config) (record, error) {
	return func(cfg experiments.Config) (record, error) { return run(cfg) }
}

// oneTable and manyTables adapt a paper experiment's typed run function to
// the table, for results that render as one table or as several.
func oneTable[R interface{ Table() *stats.Table }](run func(experiments.Config) (R, error)) func(experiments.Config) ([]*stats.Table, error) {
	return func(cfg experiments.Config) ([]*stats.Table, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{r.Table()}, nil
	}
}

func manyTables[R interface{ Tables() []*stats.Table }](run func(experiments.Config) (R, error)) func(experiments.Config) ([]*stats.Table, error) {
	return func(cfg experiments.Config) ([]*stats.Table, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

// figure6 renders Figure 6 with a row per baseline's own spread.
func figure6(cfg experiments.Config) ([]*stats.Table, error) {
	r, err := experiments.Figure6(cfg)
	if err != nil {
		return nil, err
	}
	t := r.Table()
	baselines := make([]string, 0, len(r.BaselineSpread))
	for name := range r.BaselineSpread {
		baselines = append(baselines, name)
	}
	sort.Strings(baselines)
	for _, name := range baselines {
		t.AddRow(name, "sigmaA(SA, empty)", "-", stats.F2(r.BaselineSpread[name]))
	}
	return []*stats.Table{t}, nil
}
