// Package vfs is the file layer under the durable store: the write-ahead
// log, the page file and the checkpoint manifest reach the disk only
// through an FS. The store runs on OS; tests put a simulated disk under it
// (package vfstest) that can crash, or fail one call, at any operation.
package vfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
)

// File is an open file. *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the set of file-system calls the durable store makes.
type FS interface {
	// OpenFile opens name with os.OpenFile's flags and permissions.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir makes the creates, renames and removes in dir durable.
	SyncDir(dir string) error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsync dir %s: %w", dir, err)
	}
	return nil
}
