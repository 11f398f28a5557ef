package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCommittedRecordSchemas pins every committed BENCH_<exp>.json to its
// experiment's record type: the file must decode with no unknown field,
// and re-marshaling the decoded record must produce exactly the committed
// set of JSON key paths. A record field renamed, dropped, added, or given
// a different omitempty rule shows up here before -check sees a trajectory.
func TestCommittedRecordSchemas(t *testing.T) {
	cases := []struct {
		exp string
		rec any
	}{
		{"selfinfmax", &benchRecord{}},
		{"batch", &batchBenchRecord{}},
		{"restore", &restoreBenchRecord{}},
		{"regimes", &regimeBenchRecord{}},
		{"warmpath", &warmPathRecord{}},
		{"stream", &streamRecord{}},
		{"cluster", &clusterBenchRecord{}},
	}
	for _, c := range cases {
		t.Run(c.exp, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+c.exp+".json"))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if derr := dec.Decode(c.rec); derr != nil {
				t.Fatalf("decoding the committed record: %v", derr)
			}
			again, err := json.Marshal(c.rec)
			if err != nil {
				t.Fatal(err)
			}
			want, got := keyPaths(t, data), keyPaths(t, again)
			if !slices.Equal(got, want) {
				t.Fatalf("re-marshaled key paths differ from the committed file:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// keyPaths returns the sorted set of object key paths in a JSON document,
// with array indices collapsed to "[]".
func keyPaths(t *testing.T, data []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, sub := range v {
				set[path+"."+k] = true
				walk(path+"."+k, sub)
			}
		case []any:
			for _, sub := range v {
				walk(path+"[]", sub)
			}
		}
	}
	walk("", doc)
	return slices.Sorted(maps.Keys(set))
}
