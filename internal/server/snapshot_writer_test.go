package server_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comic/internal/server"
)

// TestRepublishHealsRejectedEntry: an adopter that rejects a published
// entry object for its content deletes it, so the owner's next publish
// rewrites it — even though the previous manifest still lists it — and the
// next adopter takes every entry again.
func TestRepublishHealsRejectedEntry(t *testing.T) {
	g := snapGraph(t)
	st, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	owner := server.NewIndex(0)
	for _, theta := range []int{300, 500} {
		if _, buildErr := owner.Collection(snapReq(g, theta)); buildErr != nil {
			t.Fatal(buildErr)
		}
	}
	if n, pubErr := owner.PublishGraph(st, "snap#1"); pubErr != nil || n != 2 {
		t.Fatalf("publish = %d, %v; want 2, nil", n, pubErr)
	}

	des, err := os.ReadDir(filepath.Join(st.Root(), "graphs"))
	if err != nil || len(des) != 1 {
		t.Fatalf("expected exactly one version prefix, got %v, %v", des, err)
	}
	names, err := st.List("graphs/" + des[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	var entry string
	for _, name := range names {
		if strings.HasSuffix(name, ".rrs") {
			entry = name
			break
		}
	}
	if entry == "" {
		t.Fatalf("no entry object among %v", names)
	}
	putString(t, st, entry, "garbage, not an RR-set snapshot")

	first := server.NewIndex(0)
	if n, adoptErr := first.AdoptGraph(st, "snap#1", g); adoptErr != nil || n != 1 {
		t.Fatalf("adopt over a corrupt entry = %d, %v; want 1, nil", n, adoptErr)
	}
	if rejects := first.Stats().RestoreRejects; rejects != 1 {
		t.Fatalf("corrupt entry counted %d rejects, want 1", rejects)
	}

	if n, pubErr := owner.PublishGraph(st, "snap#1"); pubErr != nil || n != 2 {
		t.Fatalf("republish = %d, %v; want 2, nil", n, pubErr)
	}
	second := server.NewIndex(0)
	if n, adoptErr := second.AdoptGraph(st, "snap#1", g); adoptErr != nil || n != 2 {
		t.Fatalf("adopt after republish = %d, %v; want 2, nil (the rejected entry was not rewritten)", n, adoptErr)
	}
	if rejects := second.Stats().RestoreRejects; rejects != 0 {
		t.Fatalf("adopt after republish counted %d rejects, want 0", rejects)
	}
}

// TestSaveSnapshotSkipsUnchangedEntries: a second save of an unchanged
// index rewrites no entry file — the state directory, listed through the
// store with the empty prefix, already holds each object as complete as
// the resident entry.
func TestSaveSnapshotSkipsUnchangedEntries(t *testing.T) {
	g := snapGraph(t)
	dir := t.TempDir()
	idx := server.NewIndex(0)
	if _, err := idx.Collection(snapReq(g, 300)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := idx.SelectSeeds(snapReq(g, 500), g.N(), 5); err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	st, err := server.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]os.FileInfo{}
	for _, name := range names {
		if strings.Contains(name, "/") {
			t.Fatalf("List(\"\") returned %q, want a bare object name", name)
		}
		if strings.HasSuffix(name, ".rrs") {
			fi, statErr := os.Stat(filepath.Join(dir, name))
			if statErr != nil {
				t.Fatal(statErr)
			}
			before[name] = fi
		}
	}
	if len(before) != 2 {
		t.Fatalf("List(\"\") = %v, want two entry objects", names)
	}

	if err := idx.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	for name, fi := range before {
		after, statErr := os.Stat(filepath.Join(dir, name))
		if statErr != nil {
			t.Fatal(statErr)
		}
		if !os.SameFile(fi, after) {
			t.Errorf("second save rewrote unchanged entry %s", name)
		}
	}
}
