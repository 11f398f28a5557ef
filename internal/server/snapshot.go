package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/rrset"
)

// Persistent state layer. TIM-style RR-set collections are expensive to
// build and cheap to reuse — the amortization the whole serving layer is
// built on — so they are exactly the state worth keeping: across a
// restart, in the state directory (Config.StateDir), so the first query
// after a deploy does not pay the full cold-solve cost; and across nodes,
// in cluster mode's shared SnapshotStore, so a node that inherits a graph
// on a membership change adopts its warm collections instead of
// rebuilding them. Both destinations hold RR-set entries in one format,
// written by one writer (writeEntries) and read by one reader
// (readEntries): the state directory's index is a DirStore with the
// empty prefix, and a shared store holds one prefix per graph version.
// Dynamically uploaded graphs persist in the state directory too.
//
// State-directory layout:
//
//	<state>/
//	  graphs/
//	    <digest(name)>.json   registry entry: name, cache ID, GAP, source,
//	                          created time, graph fingerprint
//	    <digest(name)>.edges  text edge list (dynamically added graphs only;
//	                          preloaded datasets are rebuilt from Config)
//	  index/                  RR-set entries under the empty prefix
//	    MANIFEST.json
//	    <digest(key)>.rrs
//
// Shared-store layout, one prefix per graph version:
//
//	graphs/<digest(graphID)>/MANIFEST.json
//	graphs/<digest(graphID)>/<digest(key)>.rrs
//
// A manifest lists its entries most-recently-used first, so a restore
// under a smaller byte budget keeps the hottest prefix and recreates the
// exact LRU order. A shared-store manifest also records the full
// versioned GraphID its prefix digest was derived from. An entry object
// is one rrset.Snapshot plus its memoized seed ordering when one was
// computed (an optional, checksummed trailing section; order-less objects
// still load).
//
// Every object is written atomically (temp file in the same directory,
// fsync, rename), so a crash mid-snapshot leaves only the previous
// snapshot visible — a reader never observes a torn file. Entry objects
// are content-addressed by cache key and collections are deterministic
// per key, so a save skips an entry the store already lists when the
// previous manifest records it at least as complete (seed order,
// postings). The state directory also prunes the entry files of evicted
// or dropped collections and the temp files of crashed writers; a shared
// prefix is never pruned, since another owner may be writing it.
//
// Prefixing by versioned GraphID ("<name>#<reg-gen>@<edit-gen>") is the
// generation fence: a publisher writes only under the exact version it
// holds, an adopter reads only the prefix of the version it currently
// serves, and the manifest's recorded GraphID is verified on top. A
// snapshot of a stale generation lives under a different prefix and can
// never be adopted, let alone served. It also keeps concurrent writers
// apart: two nodes only ever race on a prefix when both own the same
// version, in which case they write identical bytes.
//
// Reads are strict where it matters and lenient where they must be. A
// torn or foreign manifest forfeits the snapshot, never the boot or the
// node. An entry whose object is corrupt, truncated, missing or of the
// wrong version, or whose key, graph identity or node/edge counts don't
// match, is skipped, counted in IndexStats.RestoreRejects, and deleted
// from the store, so the next save or publish rewrites it. Entries of a
// graph the reader does not serve, and entries beyond the byte budget,
// are counted too but keep their objects: they are intact and may become
// restorable again. Entries already resident are skipped uncounted.

const (
	manifestName     = "MANIFEST.json"
	manifestVersion  = 1
	snapshotSuffix   = ".rrs"
	graphMetaSuffix  = ".json"
	graphEdgesSuffix = ".edges"
)

// snapshotFileName is the content address of a cache key in the index
// snapshot directory: 128 digest bits keep accidental collisions out of
// reach, and the loader still verifies the full key recorded inside the
// file.
func snapshotFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + snapshotSuffix
}

// graphFileBase names a registry entry's files after its (client-chosen)
// graph name without trusting that name as a path component.
func graphFileBase(name string) string {
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:16])
}

// graphFingerprint digests a graph's full content — node count, edge
// count, and every (src, dst, probability-bits) triple. Cache IDs are only
// reused across restarts when the fingerprint matches: node/edge counts
// alone cannot distinguish two same-shaped graphs (e.g. the same dataset
// rebuilt under a different seed), and reusing a cache ID across different
// graphs would silently serve wrong RR sets.
func graphFingerprint(g *graph.Graph) string {
	h := sha256.New()
	var b [20]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(g.N()))
	binary.LittleEndian.PutUint64(b[8:16], uint64(g.M()))
	//comic:allow errlost hash.Hash.Write is documented to never return an error
	h.Write(b[:16])
	for eid := int32(0); eid < int32(g.M()); eid++ {
		u, v := g.EdgeEndpoints(eid)
		binary.LittleEndian.PutUint32(b[:4], uint32(u))
		binary.LittleEndian.PutUint32(b[4:8], uint32(v))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(g.Prob(eid)))
		//comic:allow errlost hash.Hash.Write is documented to never return an error
		h.Write(b[:16])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFileAtomic writes fill's output to path via a temp file in the same
// directory plus rename, fsyncing before the rename. Readers either see
// the old content or the complete new content; a crash (or a fill error)
// leaves the old file untouched.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		//comic:allow errlost best-effort temp cleanup; the write error is what matters
		os.Remove(tmp)
	}
	return err
}

// --- RR-set index snapshots ---

// snapshotManifest orders the entries under one prefix most-recently-used
// first. GraphID is set only in a shared store, where it is the full
// versioned ID the prefix digest was derived from; the state directory's
// manifest holds entries of every graph and omits it.
type snapshotManifest struct {
	Version int             `json:"version"`
	GraphID string          `json:"graphID,omitempty"`
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	File    string `json:"file"`
	GraphID string `json:"graphID"`
	Bytes   int64  `json:"bytes"`
	// HasOrder records whether the entry file carries the optional
	// seed-order section. The writer's skip-if-exists optimization
	// consults it: a file written before the entry's ordering was memoized
	// is rewritten once to include it, then skipped again. HasPostings
	// does the same for the examination-index section incremental repair
	// needs.
	HasOrder    bool `json:"hasOrder,omitempty"`
	HasPostings bool `json:"hasPostings,omitempty"`
	// Request is the collection's originating request parameters. A
	// restored entry that carries them participates in incremental repair
	// after a graph PATCH; without them it is merely servable.
	Request *requestMeta `json:"request,omitempty"`
}

// requestMeta is the persisted form of an rrset.CollectionRequest, minus
// the graph (resolved by GraphID at load) and the fields that do not
// affect the generated sets (Workers, RecordPostings).
type requestMeta struct {
	Kind       string     `json:"kind"`
	GAP        gapPayload `json:"gap"`
	Opposite   []int32    `json:"opposite,omitempty"`
	K          int        `json:"k"`
	Epsilon    float64    `json:"epsilon,omitempty"`
	Ell        float64    `json:"ell,omitempty"`
	FixedTheta int        `json:"fixedTheta,omitempty"`
	MaxTheta   int        `json:"maxTheta,omitempty"`
	Seed       uint64     `json:"seed"`
}

func requestMetaOf(req *rrset.CollectionRequest) *requestMeta {
	if req == nil {
		return nil
	}
	return &requestMeta{
		Kind: string(req.Kind),
		GAP: gapPayload{
			QA0: req.GAP.QA0, QAB: req.GAP.QAB,
			QB0: req.GAP.QB0, QBA: req.GAP.QBA,
		},
		Opposite:   req.Opposite,
		K:          req.K,
		Epsilon:    req.Opts.Epsilon,
		Ell:        req.Opts.Ell,
		FixedTheta: req.Opts.FixedTheta,
		MaxTheta:   req.Opts.MaxTheta,
		Seed:       req.Seed,
	}
}

// toRequest rebuilds the live request against the resolved graph. The
// loader validates the result by recomputing Key — a reconstruction that
// does not reproduce the entry's cache key is discarded (the entry stays
// servable, just not repairable).
func (rm *requestMeta) toRequest(graphID string, g *graph.Graph) *rrset.CollectionRequest {
	return &rrset.CollectionRequest{
		GraphID:  graphID,
		Graph:    g,
		Kind:     rrset.Kind(rm.Kind),
		GAP:      rm.GAP.toGAP(),
		Opposite: rm.Opposite,
		K:        rm.K,
		Opts: rrset.Options{
			Epsilon:        rm.Epsilon,
			Ell:            rm.Ell,
			FixedTheta:     rm.FixedTheta,
			MaxTheta:       rm.MaxTheta,
			RecordPostings: true,
		},
		Seed: rm.Seed,
	}
}

// SaveSnapshot persists every resident collection whose cache key names a
// graph by GraphID (pointer-identity keys are meaningless across
// processes) to dir, one checksummed file per entry plus a manifest
// recording the LRU order, through the same writer as PublishGraph. Entry
// files that already exist are reused (collections are deterministic per
// key), and files no longer referenced by the manifest are pruned, as are
// temp files a crashed writer left behind. Concurrent snapshot operations
// are serialized. Failures are counted in IndexStats.SnapshotErrors.
func (x *Index) SaveSnapshot(dir string) error {
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	//comic:allow lockorder snapMu exists to serialize snapshot I/O; the hot path takes mu, never snapMu
	err := x.saveSnapshotLocked(dir)
	x.mu.Lock()
	if err != nil {
		x.stats.SnapshotErrors++
	} else {
		x.stats.Snapshots++
	}
	x.mu.Unlock()
	return err
}

func (x *Index) saveSnapshotLocked(dir string) error {
	store, err := x.useSnapshotDir(dir)
	if err != nil {
		return err
	}
	man, err := x.writeEntries(store, "", "")
	if err != nil {
		return err
	}
	// Pruning stays local: DirStore.List hides temp files, and a shared
	// prefix may have another writer.
	keep := map[string]bool{}
	for _, me := range man.Entries {
		keep[me.File] = true
	}
	if des, err := os.ReadDir(dir); err == nil {
		for _, de := range des {
			name := de.Name()
			if (strings.HasSuffix(name, snapshotSuffix) && !keep[name]) || strings.Contains(name, ".tmp-") {
				os.Remove(filepath.Join(dir, name)) //comic:allow errlost best-effort prune; LoadSnapshot tolerates strays
			}
		}
	}
	return nil
}

// LoadSnapshot rehydrates the index from the snapshot in dir, resolving
// each entry's GraphID through graphs (cache ID → live graph), through the
// same reader as AdoptGraph: entries are admitted most-recently-used first
// while they fit the byte budget and inserted so the pre-snapshot LRU
// order is preserved exactly.
//
// A missing snapshot is not an error — the index simply starts cold. A
// torn manifest, a corrupt, truncated, or wrong-version entry file, a key
// or graph mismatch, or an entry beyond the budget is skipped and counted
// in IndexStats.RestoreRejects; it can never fail the whole load. The
// number of restored collections is returned.
func (x *Index) LoadSnapshot(dir string, graphs map[string]*graph.Graph) (int, error) {
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	//comic:allow lockorder snapMu exists to serialize snapshot I/O; the hot path takes mu, never snapMu
	store, err := x.useSnapshotDir(dir)
	if err != nil {
		return 0, err
	}
	return x.readEntries(store, "", "", graphs)
}

// useSnapshotDir opens dir as the index's state-directory store, the one
// DropGraph and RepairGraph delete dead entries from.
func (x *Index) useSnapshotDir(dir string) (*DirStore, error) {
	store, err := NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	x.snapDir = store
	x.mu.Unlock()
	return store, nil
}

// PublishGraph writes every resident collection keyed to graphID (the
// versioned RR-index GraphID) to the store under the version's prefix,
// plus a manifest recording the LRU order, and returns how many entries
// the manifest now lists. Entry objects the store already holds with the
// same completeness are not rewritten — collections are deterministic per
// key, so an existing object is already byte-correct. Publishing a version
// with no resident entries removes its manifest (the graph has nothing to
// move).
//
// Serialized with the local snapshot operations on snapMu; safe to call
// concurrently with queries.
func (x *Index) PublishGraph(store SnapshotStore, graphID string) (int, error) {
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	man, err := x.writeEntries(store, storeGraphPrefix(graphID), graphID)
	if err != nil {
		return 0, err
	}
	return len(man.Entries), nil
}

// AdoptGraph loads the store's published entries for graphID — the
// versioned GraphID of the graph version this index currently serves —
// and returns how many collections it adopted. It is the reader
// LoadSnapshot uses: the manifest and every entry object must record
// exactly graphID, the entry's key must hash to its object name, the
// codec's checksums must verify, and the node/edge counts must match g.
// Anything else is skipped and counted in IndexStats.RestoreRejects — a
// stale or foreign snapshot is never served — and a rejected entry object
// is deleted so the owner's next publish rewrites it. Entries beyond the
// byte budget count as rejects too; entries already resident are skipped
// without counting.
//
// An absent manifest is not an error: the graph simply was not published
// and the adopter stays cold.
func (x *Index) AdoptGraph(store SnapshotStore, graphID string, g *graph.Graph) (int, error) {
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	return x.readEntries(store, storeGraphPrefix(graphID), graphID, map[string]*graph.Graph{graphID: g})
}

// storeGraphPrefix is the object prefix of one graph version's published
// entries. The digest keeps client-chosen graph names (and '@'/'#' from
// the versioned ID) out of object names.
func storeGraphPrefix(graphID string) string {
	sum := sha256.Sum256([]byte(graphID))
	return "graphs/" + hex.EncodeToString(sum[:16])
}

// objectName is the store name of base under prefix; the state directory
// uses the empty prefix.
func objectName(prefix, base string) string {
	if prefix == "" {
		return base
	}
	return prefix + "/" + base
}

// writeEntries writes the resident collections keyed to graphID ("" =
// every collection keyed by a GraphID) under prefix, then the manifest
// listing them MRU first, and returns that manifest. An entry is skipped
// when the store already lists its object and the previous manifest
// records the object at least as complete as the resident entry. With
// nothing to write, the manifest is deleted. Called with snapMu held.
func (x *Index) writeEntries(store SnapshotStore, prefix, graphID string) (*snapshotManifest, error) {
	// Copy the resident set under the lock; collections are immutable, so
	// the (possibly slow) writes below need no lock.
	x.mu.Lock()
	var list []indexEntry
	for el := x.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*indexEntry)
		if e.graphID != "" && (graphID == "" || e.graphID == graphID) {
			list = append(list, *e)
		}
	}
	x.mu.Unlock()

	manifestObj := objectName(prefix, manifestName)
	man := &snapshotManifest{Version: manifestVersion, GraphID: graphID}
	if len(list) == 0 {
		return man, store.Delete(manifestObj)
	}
	names, err := store.List(prefix)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(names))
	for _, name := range names {
		listed[name] = true
	}
	// An unreadable previous manifest only costs rewriting every entry.
	prev := map[string]manifestEntry{}
	if old, _ := readManifest(store, manifestObj, graphID); old != nil {
		for _, me := range old.Entries {
			prev[me.File] = me
		}
	}
	seen := map[string]bool{}
	for _, e := range list {
		name := snapshotFileName(e.key)
		if seen[name] {
			continue // digest collision between live keys: keep the hotter entry
		}
		seen[name] = true
		me := manifestEntry{
			File: name, GraphID: e.graphID, Bytes: e.bytes,
			HasOrder: e.order != nil, HasPostings: e.col.HasPostings(),
			Request: requestMetaOf(e.req),
		}
		obj := objectName(prefix, name)
		if p := prev[name]; listed[obj] && (p.HasOrder || !me.HasOrder) && (p.HasPostings || !me.HasPostings) {
			// The stored object is at least as complete as the resident
			// entry: reuse it. It may carry sections the entry has not
			// (re)computed yet. The request meta lives in the manifest, so
			// it is refreshed regardless.
			me.HasOrder, me.HasPostings = p.HasOrder, p.HasPostings
		} else {
			snap := &rrset.Snapshot{Key: e.key, GraphID: e.graphID, GraphN: e.graph.N(), GraphM: e.graph.M(),
				Collection: e.col, Order: e.order}
			if err := store.Put(obj, func(w io.Writer) error {
				_, err := snap.WriteTo(w)
				return err
			}); err != nil {
				return nil, err
			}
		}
		man.Entries = append(man.Entries, me)
	}
	return man, store.Put(manifestObj, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
}

// readEntries admits the entries of the manifest under prefix, resolving
// each entry's GraphID through graphs, and returns how many it inserted.
// The manifest must record graphID. Entries are admitted MRU first while
// they fit the byte budget and inserted so the manifest's LRU order is
// preserved. Called with snapMu held.
func (x *Index) readEntries(store SnapshotStore, prefix, graphID string, graphs map[string]*graph.Graph) (int, error) {
	man, err := readManifest(store, objectName(prefix, manifestName), graphID)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var rejects int64
	if man == nil {
		rejects++ // a torn or foreign manifest forfeits the snapshot
		man = &snapshotManifest{}
	}
	x.mu.Lock()
	resident := make(map[string]bool, len(x.entries))
	for key := range x.entries {
		resident[snapshotFileName(key)] = true
	}
	x.mu.Unlock()

	var accepted []*indexEntry
	var acceptedBytes int64
	budgetFull := false
	for _, me := range man.Entries {
		if resident[me.File] {
			continue // already warm; never replace a live entry
		}
		g, known := graphs[me.GraphID]
		if !known || budgetFull {
			// A graph this index does not serve (deleted, config changed,
			// another version), or the budget is full: the entry is intact
			// and keeps its object. Once one entry exceeds the budget,
			// nothing colder is admitted either, exactly as if the rest had
			// been evicted.
			rejects++
			continue
		}
		obj := objectName(prefix, me.File)
		snap, err := readSnapshot(store, obj)
		if err != nil || snap.GraphID != me.GraphID || snapshotFileName(snap.Key) != me.File ||
			snap.GraphN != g.N() || snap.GraphM != g.M() {
			// Corrupt, truncated, wrong version, missing, or not the entry
			// the manifest names. Deleting it makes the next save or
			// publish rewrite it instead of re-listing the bad object.
			rejects++
			store.Delete(obj) //comic:allow errlost best-effort; a surviving bad object is re-rejected next read
			continue
		}
		e := &indexEntry{key: snap.Key, graphID: me.GraphID, col: snap.Collection, graph: g,
			bytes: snap.Collection.Bytes(), order: snap.Order}
		if snap.Order != nil {
			e.orderBytes = snap.Order.Bytes() // resident memory like the arena
		}
		if x.maxBytes > 0 && acceptedBytes+e.bytes+e.orderBytes > x.maxBytes {
			budgetFull = true
			rejects++
			continue
		}
		// Rebuild the repair-capable request if the manifest recorded one.
		// The recomputed cache key must reproduce the entry's key exactly —
		// a mismatch (hand-edited manifest, foreign key format) demotes the
		// entry to servable-but-not-repairable rather than risking a repair
		// under the wrong parameters.
		if me.Request != nil {
			if cand := me.Request.toRequest(me.GraphID, g); cand.Key() == snap.Key {
				e.req = cand
			}
		}
		acceptedBytes += e.bytes + e.orderBytes
		accepted = append(accepted, e)
	}

	x.mu.Lock()
	defer x.mu.Unlock()
	restored := 0
	for i := len(accepted) - 1; i >= 0; i-- { // coldest first: PushFront rebuilds MRU order
		e := accepted[i]
		if _, ok := x.entries[e.key]; ok {
			continue // a racing build landed while we read the store
		}
		x.entries[e.key] = x.lru.PushFront(e)
		x.bytes += e.bytes + e.orderBytes
		x.orderBytes += e.orderBytes
		restored++
	}
	x.evictOverBudgetLocked()
	x.stats.Restores += int64(restored)
	x.stats.RestoreRejects += rejects
	return restored, nil
}

// readManifest reads the manifest object name. A manifest that does not
// decode, has another format version, or records another GraphID yields
// (nil, nil); store errors, fs.ErrNotExist included, are returned.
func readManifest(store SnapshotStore, name, graphID string) (*snapshotManifest, error) {
	rc, err := store.Get(name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	var man snapshotManifest
	if json.NewDecoder(rc).Decode(&man) != nil || man.Version != manifestVersion || man.GraphID != graphID {
		return nil, nil
	}
	return &man, nil
}

func readSnapshot(store SnapshotStore, name string) (*rrset.Snapshot, error) {
	rc, err := store.Get(name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return rrset.ReadCollection(rc)
}

// --- graph registry persistence ---

// graphMeta is the persisted identity of one registry entry. The cache ID
// (and its generation counter) is the part that matters: index snapshot
// entries are keyed by it, so restoring a graph under its old cache ID
// re-links the restored collections, while a graph whose content changed
// (fingerprint mismatch) gets a fresh ID and its stale collections are
// rejected at load.
type graphMeta struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	CacheID string `json:"cacheID"`
	Gen     int64  `json:"gen"`
	// GraphGen is the entry's edit generation — how many edge-update
	// PATCH batches have been applied since registration. A patched graph
	// (GraphGen > 0) always persists its edge list, even for preloaded
	// datasets: the configured loader only knows generation 0.
	GraphGen int64      `json:"graphGen,omitempty"`
	Source   string     `json:"source"`
	GAP      gapPayload `json:"gap"`
	// Regime is the GAP's classification at persist time, recorded for
	// operators inspecting the state directory. Restore recomputes the
	// regime from the GAP (the single source of truth), so a hand-edited
	// or pre-regime meta file loads fine.
	Regime      string    `json:"regime,omitempty"`
	Created     time.Time `json:"created"`
	Nodes       int       `json:"nodes"`
	Edges       int       `json:"edges"`
	Fingerprint string    `json:"fingerprint"`
	HasEdgeFile bool      `json:"hasEdgeFile"`
}

// persistGraph writes the meta file for version v of entry e and, when
// the graph cannot be rebuilt from Config (dynamically added, or patched
// past generation 0), its edge list. Any stale edge file under the same
// name (a deleted upload whose name a preloaded dataset now owns) is
// removed. Called with registry.persistMu held (never registry.mu — the
// fingerprint and fsyncs must not stall the query path); no-op without a
// state directory.
func (r *registry) persistGraph(e *regEntry, v *graphVersion) error {
	if r.stateDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.stateDir, 0o755); err != nil {
		return err
	}
	base := graphFileBase(e.name)
	meta := graphMeta{
		Version:     1,
		Name:        e.name,
		CacheID:     e.cacheID,
		Gen:         e.gen,
		GraphGen:    v.gen,
		Source:      e.source,
		GAP:         gapPayload{QA0: v.d.GAP.QA0, QAB: v.d.GAP.QAB, QB0: v.d.GAP.QB0, QBA: v.d.GAP.QBA},
		Regime:      v.d.EffectiveRegime().String(),
		Created:     e.created,
		Nodes:       v.d.Graph.N(),
		Edges:       v.d.Graph.M(),
		Fingerprint: v.fingerprint,
		HasEdgeFile: e.source != "preloaded" || v.gen > 0,
	}
	if meta.HasEdgeFile {
		if err := writeFileAtomic(filepath.Join(r.stateDir, base+graphEdgesSuffix), func(w io.Writer) error {
			return graph.WriteEdgeList(w, v.d.Graph)
		}); err != nil {
			return err
		}
	} else {
		//comic:allow errlost best-effort; a stale edge file is shadowed by the meta's HasEdgeFile=false
		os.Remove(filepath.Join(r.stateDir, base+graphEdgesSuffix))
	}
	return writeFileAtomic(filepath.Join(r.stateDir, base+graphMetaSuffix), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	})
}

// unpersistGraphOwned deletes e's persisted files — so a deleted graph can
// never be resurrected by a restart — but only if they still belong to e:
// a newer registration under the same name owns the same file paths, and
// cleanup deferred across a register/delete/re-register race must never
// destroy the newer graph's state. The on-disk meta's CacheID is the
// ownership record; an unreadable or missing meta means nothing is
// restorable under this name, so the files are removed unconditionally.
// Called with registry.persistMu held.
func (r *registry) unpersistGraphOwned(e *regEntry) {
	if r.stateDir == "" {
		return
	}
	base := graphFileBase(e.name)
	metaPath := filepath.Join(r.stateDir, base+graphMetaSuffix)
	if data, err := os.ReadFile(metaPath); err == nil {
		var m graphMeta
		if json.Unmarshal(data, &m) == nil && m.CacheID != e.cacheID {
			return // a newer registration owns these files
		}
	}
	//comic:allow errlost best-effort; the meta is removed first, so a surviving edge file is unrestorable
	os.Remove(metaPath)
	//comic:allow errlost best-effort; the meta is removed first, so a surviving edge file is unrestorable
	os.Remove(filepath.Join(r.stateDir, base+graphEdgesSuffix))
}

// readGraphMetas loads every parseable graph meta file in dir, keyed by
// graph name. Unreadable or torn files are skipped: losing one registry
// entry must not fail the boot.
func readGraphMetas(dir string) map[string]graphMeta {
	out := map[string]graphMeta{}
	des, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, graphMetaSuffix) || strings.Contains(name, ".tmp-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var m graphMeta
		if err := json.Unmarshal(data, &m); err != nil || m.Version != 1 || m.Name == "" {
			continue
		}
		if graphFileBase(m.Name)+graphMetaSuffix != name {
			continue // file does not belong to the name it claims
		}
		out[m.Name] = m
	}
	return out
}

// restoreDynamicGraph loads a persisted dynamically-added graph (an upload
// or an in-process registration) and verifies its content fingerprint. Any
// failure returns nil: the entry is simply not restored.
//
// The upload node cap applies only to graphs that arrived through the
// upload endpoint: an in-process RegisterGraph accepts graphs of any size,
// so silently dropping one at restore for exceeding a cap it never faced
// would lose state the API promised to keep.
func restoreDynamicGraph(dir string, m graphMeta, maxUploadNodes int) *datasets.Dataset {
	if !m.HasEdgeFile {
		return nil
	}
	f, err := os.Open(filepath.Join(dir, graphFileBase(m.Name)+graphEdgesSuffix))
	if err != nil {
		return nil
	}
	defer f.Close()
	maxNodes := 0
	if m.Source == "uploaded" {
		maxNodes = maxUploadNodes
	}
	g, err := graph.ReadEdgeListLimit(f, maxNodes)
	if err != nil {
		return nil
	}
	if g.N() != m.Nodes || g.M() != m.Edges || graphFingerprint(g) != m.Fingerprint {
		return nil
	}
	// datasets.New recomputes the regime from the GAP, so a meta file
	// predating (or hand-edited around) the regime field restores with the
	// correct classification.
	return datasets.New(m.Name, g, m.GAP.toGAP(), m.Source)
}

// sortedMetaNames returns the meta map's keys ordered by generation (then
// name), so restored registrations replay in their original order.
func sortedMetaNames(metas map[string]graphMeta) []string {
	names := make([]string, 0, len(metas))
	for name := range metas {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := metas[names[i]], metas[names[j]]
		if a.Gen != b.Gen {
			return a.Gen < b.Gen
		}
		return a.Name < b.Name
	})
	return names
}

// stateIndexDir and stateGraphsDir map a configured StateDir to its two
// subdirectories.
func stateIndexDir(stateDir string) string  { return filepath.Join(stateDir, "index") }
func stateGraphsDir(stateDir string) string { return filepath.Join(stateDir, "graphs") }

// errNoStateDir is returned by SaveState on a server with no StateDir.
var errNoStateDir = fmt.Errorf("server: no StateDir configured")
