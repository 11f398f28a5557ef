package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SnapshotStore is a pluggable blob backend for RR-set snapshots (see the
// layout comment in snapshot.go). It is deliberately object-store-shaped
// (flat names, whole-object writes, list-by-prefix) so the filesystem
// implementation below can later be swapped for S3/GCS without touching
// the index logic. Object names are forward-slash-separated paths of
// [a-zA-Z0-9._-] segments. Implementations must make Put atomic (readers
// see the old object or the whole new one, never a torn write) and must
// return an error wrapping fs.ErrNotExist from Get when the object is
// absent.
type SnapshotStore interface {
	// Put creates or replaces the named object with fill's output.
	Put(name string, fill func(io.Writer) error) error
	// Get opens the named object for reading.
	Get(name string) (io.ReadCloser, error)
	// List returns the names of all objects under prefix, sorted; the
	// empty prefix lists the objects at the root.
	List(prefix string) ([]string, error)
	// Delete removes the named object; deleting an absent object is not an
	// error.
	Delete(name string) error
	// Ping reports whether the store is reachable, for readiness probes.
	Ping() error
}

// --- filesystem implementation ---

// DirStore implements SnapshotStore on a filesystem directory: the local
// state directory's index, and for the cluster tier typically a shared
// mount (NFS, EBS multi-attach) in a real deployment, a plain local
// directory in tests and single-host clusters. All writes are atomic
// temp-file+rename.
type DirStore struct {
	root string
}

// NewDirStore opens (creating if needed) a directory-backed snapshot
// store rooted at root.
func NewDirStore(root string) (*DirStore, error) {
	if root == "" {
		return nil, errors.New("server: DirStore root must be non-empty")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating snapshot store root: %v", err)
	}
	return &DirStore{root: root}, nil
}

// Root returns the store's root directory.
func (ds *DirStore) Root() string { return ds.root }

// storePath maps an object name onto the root, refusing names that could
// escape it. Internally generated names are hex digests and fixed
// basenames, but the store is an exported API surface and must not trust
// its callers with path traversal.
func (ds *DirStore) storePath(name string) (string, error) {
	if name == "" || strings.HasPrefix(name, "/") || strings.HasSuffix(name, "/") {
		return "", fmt.Errorf("server: bad store object name %q", name)
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return "", fmt.Errorf("server: bad store object name %q", name)
		}
	}
	return filepath.Join(ds.root, filepath.FromSlash(name)), nil
}

func (ds *DirStore) Put(name string, fill func(io.Writer) error) error {
	path, err := ds.storePath(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFileAtomic(path, fill)
}

func (ds *DirStore) Get(name string) (io.ReadCloser, error) {
	path, err := ds.storePath(name)
	if err != nil {
		return nil, err
	}
	return os.Open(path) // wraps fs.ErrNotExist when absent
}

func (ds *DirStore) List(prefix string) ([]string, error) {
	dir := ds.root
	if prefix != "" {
		var err error
		if dir, err = ds.storePath(prefix); err != nil {
			return nil, err
		}
	}
	des, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if de.IsDir() || strings.Contains(de.Name(), ".tmp-") {
			continue // a crashed writer's temp file is not an object
		}
		names = append(names, objectName(prefix, de.Name()))
	}
	sort.Strings(names)
	return names, nil
}

func (ds *DirStore) Delete(name string) error {
	path, err := ds.storePath(name)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Ping verifies the root directory exists and is a directory. That is the
// failure mode a shared mount actually has (unmounted path), and it is
// cheap enough for every /healthz probe.
func (ds *DirStore) Ping() error {
	fi, err := os.Stat(ds.root)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return fmt.Errorf("server: snapshot store root %q is not a directory", ds.root)
	}
	return nil
}
