// Package durable is the persistence layer behind the erserve graph
// store (internal/serve): an append-only, CRC-framed journal of store
// mutations plus content-addressed snapshot files, replayed at boot
// into exactly the committed in-memory state.
//
// Layout of a data directory:
//
//	CURRENT               names the live manifest ("MANIFEST-<seq>")
//	MANIFEST-<seq>        JSON snapshot of the committed store state
//	wal/wal-<seq>.log     journal segments (length-prefixed CRC frames)
//	graphs/<sum>.edges    graph snapshots (edge-list codec), named by
//	                      their graph.Checksum fingerprint
//	gts/<key>.json        ground-truth pair sets, content-hash named
//
// Older versions also spilled representation-cache inputs to a reps/
// directory; Open neither reads nor removes it, and it can be deleted.
//
// Every mutation commits by first making its content-addressed files
// durable (write temp, fsync, rename, fsync dir), then appending one
// journal record and fsyncing the segment. A crash at any point leaves
// either no trace of the mutation or the whole of it: recovery replays
// whole, CRC-valid frames only, discards torn tails, and verifies every
// referenced graph snapshot against the checksum stored in its record.
//
// All file access goes through the FS interface so the crash-injection
// harness (internal/durable/crashtest) can substitute an in-memory
// filesystem with fault points and a simulated power cut.
package durable

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the handle surface the durable layer needs: sequential reads
// or writes plus an explicit fsync.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file content to stable storage; a commit is not
	// acknowledged before it returns.
	Sync() error
}

// FS abstracts the filesystem operations of the durable layer. OSFS is
// the real implementation; the crashtest package provides an in-memory
// one with fault injection and a simulated crash. Paths are slash-joined
// by the callers; implementations may treat them as opaque keys.
type FS interface {
	// MkdirAll creates the directory and its parents.
	MkdirAll(path string) error
	// Create opens path for writing, truncating an existing file.
	Create(path string) (File, error)
	// Append opens path for appending, creating it when absent.
	Append(path string) (File, error)
	// Open opens path for reading.
	Open(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// ReadDir lists the file names inside path, in no particular order.
	// A missing directory returns an empty list, not an error.
	ReadDir(path string) ([]string, error)
	// Stat returns the size of the file at path. A missing file returns
	// an error satisfying os.IsNotExist semantics (errors.Is fs.ErrNotExist).
	Stat(path string) (int64, error)
	// SyncDir fsyncs the directory itself, making renames and creates
	// inside it durable.
	SyncDir(path string) error
}

// OSFS is the production FS over the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OSFS) Append(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (OSFS) Open(path string) (File, error) { return os.Open(path) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Stat(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (OSFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Clean(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
