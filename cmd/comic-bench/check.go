package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Trajectory checking. CI regenerates each benchmark record and diffs it
// against the committed BENCH_*.json with `comic-bench -check fresh.json
// committed.json`. The records mix two kinds of fields:
//
//   - deterministic ones — seeds, θ, build/hit counts, exact byte sizes —
//     which must match bit-for-bit: a divergence means the solver's output
//     changed, and that must never happen silently;
//   - timings (any key ending in "Ns"), which depend on the shared runner
//     and only warn.
//
// The comparison is structural over arbitrary JSON, so new experiments get
// checked without touching this file, and adding or removing a field shows
// up as a divergence (the committed file must be regenerated deliberately
// alongside the code change).

// runCheck compares freshPath against committedPath, printing warnings for
// timing drift and returning an error listing every deterministic
// divergence.
func runCheck(freshPath, committedPath string, out, errOut io.Writer) error {
	fresh, err := loadJSONValue(freshPath)
	if err != nil {
		return fmt.Errorf("reading fresh record %s: %w", freshPath, err)
	}
	committed, err := loadJSONValue(committedPath)
	if err != nil {
		return fmt.Errorf("reading committed trajectory %s: %w", committedPath, err)
	}
	var diffs, warns []string
	compareJSON("", committed, fresh, &diffs, &warns)
	for _, w := range warns {
		//comic:allow errlost warn lines are advisory; a dead stderr must not fail the check
		fmt.Fprintf(errOut, "comic-bench: check: timing drift (warn-only): %s\n", w)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s diverges from committed %s in %d deterministic field(s):\n  %s\n(if the change is intentional, regenerate and commit the trajectory file)",
			freshPath, committedPath, len(diffs), strings.Join(diffs, "\n  "))
	}
	//comic:allow errlost the verdict is the exit status; the summary line is advisory
	fmt.Fprintf(out, "comic-bench: check: %s matches %s (%d timing field(s) warn-only)\n",
		freshPath, committedPath, len(warns))
	return nil
}

func loadJSONValue(path string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// timingKey reports whether the leaf named by path is a timing field:
// the benchmark records name every duration with an "Ns" suffix.
func timingKey(path string) bool {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		path = path[i+1:]
	}
	if i := strings.IndexByte(path, '['); i >= 0 {
		path = path[:i]
	}
	return strings.HasSuffix(path, "Ns")
}

// compareJSON walks want (the committed trajectory) and got (the fresh
// record) in parallel, recording mismatches. Timing leaves go to warns,
// everything else to diffs.
func compareJSON(path string, want, got any, diffs, warns *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			classify(path, fmt.Sprintf("committed has an object, fresh has %T", got), diffs, warns)
			return
		}
		keys := map[string]bool{}
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			wv, wok := w[k]
			gv, gok := g[k]
			switch {
			case !wok:
				classify(sub, "present only in fresh record", diffs, warns)
			case !gok:
				classify(sub, "missing from fresh record", diffs, warns)
			default:
				compareJSON(sub, wv, gv, diffs, warns)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			classify(path, fmt.Sprintf("committed has an array, fresh has %T", got), diffs, warns)
			return
		}
		if len(w) != len(g) {
			classify(path, fmt.Sprintf("array length %d (committed) vs %d (fresh)", len(w), len(g)), diffs, warns)
			return
		}
		for i := range w {
			compareJSON(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], diffs, warns)
		}
	default:
		if want != got {
			classify(path, fmt.Sprintf("committed %v vs fresh %v", want, got), diffs, warns)
		}
	}
}

// classify records msg against the field at path: a timing leaf's
// mismatch goes to warns, any other to diffs.
func classify(path, msg string, diffs, warns *[]string) {
	if path != "" {
		msg = path + ": " + msg
	}
	if timingKey(path) {
		*warns = append(*warns, msg)
	} else {
		*diffs = append(*diffs, msg)
	}
}
