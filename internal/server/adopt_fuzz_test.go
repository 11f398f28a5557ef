package server

import (
	"bytes"
	"io"
	"testing"

	"comic/internal/graph"
	"comic/internal/rng"
	"comic/internal/rrset"
)

// FuzzAdoptGraph feeds arbitrary manifest and entry bytes through the
// shared snapshot reader. Whatever the store holds, AdoptGraph must not
// panic, and every entry it admits must be the object its file name
// content-addresses, drawn on a graph of the adopter's node and edge
// counts.
func FuzzAdoptGraph(f *testing.F) {
	const graphID = "fuzz#1"
	g := graph.PowerLaw(12, 2, 2.16, true, rng.New(3))
	graph.AssignWeightedCascade(g)
	prefix := storeGraphPrefix(graphID)

	// Seed with a real publication: its manifest and its one entry object.
	seedStore, err := NewDirStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	owner := NewIndex(0)
	req := rrset.CollectionRequest{GraphID: graphID, Graph: g, Kind: rrset.KindIC, K: 3,
		Opts: rrset.Options{FixedTheta: 4, Workers: 1}, Seed: 5}
	if _, _, err := owner.SelectSeeds(req, g.N(), 3); err != nil {
		f.Fatal(err)
	}
	if n, err := owner.PublishGraph(seedStore, graphID); err != nil || n != 1 {
		f.Fatalf("seed publish = %d, %v", n, err)
	}
	entryName := snapshotFileName(req.Key())
	seedManifest := readObject(f, seedStore, objectName(prefix, manifestName))
	seedEntry := readObject(f, seedStore, objectName(prefix, entryName))
	f.Add(seedManifest, seedEntry)
	f.Add(seedManifest, seedEntry[:len(seedEntry)/2])
	f.Add([]byte(`{"version":1,"graphID":"fuzz#1","entries":[{"file":"../../escape","graphID":"fuzz#1"}]}`), seedEntry)
	f.Add([]byte(`{ torn`), []byte{})

	f.Fuzz(func(t *testing.T, manifest, entry []byte) {
		store, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		putBytes(t, store, objectName(prefix, manifestName), manifest)
		putBytes(t, store, objectName(prefix, entryName), entry)

		x := NewIndex(1 << 20)
		n, err := x.AdoptGraph(store, graphID, g)
		if err != nil {
			return
		}
		if n != x.Len() {
			t.Fatalf("adopted %d entries into an empty index, Len %d", n, x.Len())
		}
		if n != 1 && bytes.Equal(manifest, seedManifest) && bytes.Equal(entry, seedEntry) {
			t.Fatalf("the intact seed publication adopted %d entries, want 1", n)
		}
		var resident int64
		for el := x.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*indexEntry)
			resident += e.bytes + e.orderBytes
			if e.graphID != graphID || e.graph != g {
				t.Fatalf("entry %q adopted under graph %q", e.key, e.graphID)
			}
			snap, err := readSnapshot(store, objectName(prefix, snapshotFileName(e.key)))
			if err != nil {
				t.Fatalf("adopted entry %q does not hash to a readable object: %v", e.key, err)
			}
			if snap.Key != e.key || snap.GraphN != g.N() || snap.GraphM != g.M() {
				t.Fatalf("adopted entry %q: object holds key %q, N/M %d/%d; graph has %d/%d",
					e.key, snap.Key, snap.GraphN, snap.GraphM, g.N(), g.M())
			}
		}
		if st := x.Stats(); st.ResidentBytes != resident {
			t.Fatalf("resident bytes %d, entries sum to %d", st.ResidentBytes, resident)
		}
	})
}

func readObject(tb testing.TB, store SnapshotStore, name string) []byte {
	tb.Helper()
	rc, err := store.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func putBytes(tb testing.TB, store SnapshotStore, name string, data []byte) {
	tb.Helper()
	if err := store.Put(name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		tb.Fatal(err)
	}
}
