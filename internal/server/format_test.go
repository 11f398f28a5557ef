package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"comic/internal/server"
)

// TestSnapshotFormatGolden pins the on-disk format of both snapshot
// destinations — the local state directory (SaveSnapshot) and a shared
// store version prefix (PublishGraph) — for a fixed two-entry index, one
// entry carrying a memoized seed order. A change to either manifest's
// bytes or to the entry-object naming breaks every existing snapshot, so
// it must show up here as a deliberate golden update.
func TestSnapshotFormatGolden(t *testing.T) {
	g := snapGraph(t)
	idx := server.NewIndex(0)
	if _, err := idx.Collection(snapReq(g, 300)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := idx.SelectSeeds(snapReq(g, 500), g.N(), 5); err != nil { // builds collection + order
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := idx.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n, pubErr := idx.PublishGraph(st, "snap#1"); pubErr != nil || n != 2 {
		t.Fatalf("publish = %d, %v; want 2, nil", n, pubErr)
	}

	const (
		wantStorePrefix   = "graphs/30b18f8a223ef115afbcd6effeea6674/"
		wantLocalManifest = "37e61536c22f90722ddee5999f4a3c417360734d2f209752205532409952d5d6"
		wantStoreManifest = "2143543cadfc1a7a5181d75f9977194ce38094909dc05f312be657db1c808d94"
	)
	wantEntries := []string{
		"6d5393db5c76bf6d23933eb70f3dc818.rrs",
		"8331f874c9c2c80cd7f9ff606fc7230b.rrs",
	}

	if got := fileSHA256(t, filepath.Join(dir, "MANIFEST.json")); got != wantLocalManifest {
		t.Errorf("local MANIFEST.json sha256 = %s, want %s", got, wantLocalManifest)
	}
	local, err := filepath.Glob(filepath.Join(dir, "*.rrs"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		local[i] = filepath.Base(local[i])
	}
	sort.Strings(local)
	if !reflect.DeepEqual(local, wantEntries) {
		t.Errorf("local entry files = %v, want %v", local, wantEntries)
	}

	des, err := os.ReadDir(filepath.Join(st.Root(), "graphs"))
	if err != nil || len(des) != 1 {
		t.Fatalf("expected exactly one version prefix, got %v, %v", des, err)
	}
	prefix := "graphs/" + des[0].Name()
	if prefix+"/" != wantStorePrefix {
		t.Errorf("store prefix = %s/, want %s", prefix, wantStorePrefix)
	}
	if got := fileSHA256(t, filepath.Join(st.Root(), filepath.FromSlash(prefix), "MANIFEST.json")); got != wantStoreManifest {
		t.Errorf("store MANIFEST.json sha256 = %s, want %s", got, wantStoreManifest)
	}
	names, err := st.List(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var objects []string
	for _, name := range names {
		if base := strings.TrimPrefix(name, prefix+"/"); base != "MANIFEST.json" {
			objects = append(objects, base)
		}
	}
	if !reflect.DeepEqual(objects, wantEntries) {
		t.Errorf("store entry objects = %v, want %v", objects, wantEntries)
	}
}

func fileSHA256(tb testing.TB, path string) string {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
