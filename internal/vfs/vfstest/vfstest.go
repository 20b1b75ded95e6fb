// Package vfstest is a simulated disk for tests of the durable store: an
// in-memory vfs.FS that keeps apart what reads see and what a crash keeps,
// and that can crash, or fail one call, at any operation.
//
// The crash model is ALICE's (Pillai et al., OSDI 2014). A file's writes
// reach the disk at its Sync, a directory's creates, renames and removes at
// its SyncDir; a crash keeps what was synced plus a prefix of each file's
// and each directory's pending operations (see Keep). A failed Sync drops
// the file's unsynced writes from the disk while reads still see them, as
// Linux does after an fsync error (Rebello et al., ATC 2020). Directories
// are durable once made.
package vfstest

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"

	"ordxml/internal/vfs"
)

// ErrCrashed is the error of every call made after a crash.
var ErrCrashed = errors.New("vfstest: the disk crashed")

// A Fault picks the N-th call, counted from Arm, of Op ("open", "write",
// "truncate", "sync" for Sync and SyncDir, "rename" of the old name, or
// "remove") on a file or directory whose base name is Name; an empty Op or
// Name matches any. With Err zero the disk crashes before the call takes
// effect; otherwise the call fails with Err and has no effect, except that
// a failed Sync drops the unsynced writes from the disk.
type Fault struct {
	Op, Name string
	N        int
	Err      syscall.Errno
}

// Keep says what a crash image keeps of the operations not yet synced.
type Keep int

const (
	// Synced keeps none: a power cut after the last sync.
	Synced Keep = iota
	// Names keeps every pending create, rename and remove and no unsynced
	// write: names reach the disk ahead of the data they name.
	Names
	// Prefixes keeps a seeded prefix of each directory's and each file's
	// pending operations; half the time the last write kept is torn at a
	// 512-byte boundary.
	Prefixes
)

// op is one unsynced write, or a truncation when data is nil.
type op struct {
	off  int64
	data []byte
}

func apply(b []byte, o op) []byte {
	end := o.off + int64(len(o.data))
	if o.data == nil && end <= int64(len(b)) {
		return b[:end]
	}
	if end > int64(len(b)) {
		b = append(b, make([]byte, end-int64(len(b)))...)
	}
	copy(b[o.off:], o.data)
	return b
}

type inode struct {
	view, durable []byte
	pending       []op
}

func (n *inode) write(o op) {
	n.view = apply(n.view, o)
	n.pending = append(n.pending, o)
}

// dirOp creates (from empty), removes (to empty) or renames an entry.
type dirOp struct {
	from, to string
	node     *inode
}

func (o dirOp) apply(entries map[string]*inode) {
	delete(entries, o.from)
	if o.to != "" {
		entries[o.to] = o.node
	}
}

type dir struct {
	view, durable map[string]*inode
	pending       []dirOp
}

func (d *dir) change(o dirOp) {
	o.apply(d.view)
	d.pending = append(d.pending, o)
}

// FS is the simulated disk. Safe for concurrent use.
type FS struct {
	mu      sync.Mutex
	dirs    map[string]*dir
	calls   map[string]int
	fault   Fault
	seen    int
	fired   bool
	crashed bool
}

var _ vfs.FS = (*FS)(nil)

// New returns an empty disk.
func New() *FS { return &FS{dirs: map[string]*dir{}, calls: map[string]int{}} }

// Arm replaces the armed fault; the zero Fault disarms.
func (f *FS) Arm(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fault, f.seen, f.fired = fault, 0, false
}

// Fired reports whether the armed fault has fired.
func (f *FS) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Crashed reports whether the disk has crashed.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Calls is how many calls of op the disk has seen.
func (f *FS) Calls(op string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// List returns the names in dir, sorted.
func (f *FS) List(dir string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return sortedNames(f.dirs[filepath.Clean(dir)].view)
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Image returns a new disk holding what a crash now leaves: what was
// synced, and what keep says of the rest, drawn from rng for Prefixes.
func (f *FS) Image(keep Keep, rng *rand.Rand) *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	img, copied := New(), map[*inode]*inode{}
	for _, p := range sortedNames(f.dirs) {
		d := f.dirs[p]
		entries := map[string]*inode{}
		for name, n := range d.durable {
			entries[name] = n
		}
		kept := 0
		switch keep {
		case Names:
			kept = len(d.pending)
		case Prefixes:
			kept = rng.Intn(len(d.pending) + 1)
		}
		for _, o := range d.pending[:kept] {
			o.apply(entries)
		}
		nd := &dir{view: map[string]*inode{}, durable: map[string]*inode{}}
		for _, name := range sortedNames(entries) {
			n := entries[name]
			if copied[n] == nil {
				copied[n] = crashContents(n, keep, rng)
			}
			nd.view[name], nd.durable[name] = copied[n], copied[n]
		}
		img.dirs[p] = nd
	}
	return img
}

// PowerCut turns the disk, in place, into Image(Synced, nil); the call
// counts and the armed fault carry on.
func (f *FS) PowerCut() {
	img := f.Image(Synced, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirs = img.dirs
}

// crashContents is what a crash leaves of n.
func crashContents(n *inode, keep Keep, rng *rand.Rand) *inode {
	b := slices.Clone(n.durable)
	if keep == Prefixes {
		kept := n.pending[:rng.Intn(len(n.pending)+1)]
		for i, o := range kept {
			if i == len(kept)-1 && o.data != nil && rng.Intn(2) == 0 {
				// Torn: only the sectors before a 512-byte boundary inside
				// the write reached the disk.
				var cuts []int64
				for c := (o.off/512 + 1) * 512; c < o.off+int64(len(o.data)); c += 512 {
					cuts = append(cuts, c-o.off)
				}
				if len(cuts) > 0 {
					o.data = o.data[:cuts[rng.Intn(len(cuts))]]
				}
			}
			b = apply(b, o)
		}
	}
	return &inode{view: b, durable: slices.Clone(b)}
}

// call starts a call of op on path: it fails after a crash and, when
// counted, fires the armed fault. Caller holds f.mu.
func (f *FS) call(op, path string, counted bool) error {
	if f.crashed {
		return &fs.PathError{Op: op, Path: path, Err: ErrCrashed}
	}
	if !counted {
		return nil
	}
	f.calls[op]++
	ft := f.fault
	if ft.N == 0 || f.fired || ft.Op != "" && ft.Op != op || ft.Name != "" && ft.Name != filepath.Base(path) {
		return nil
	}
	if f.seen++; f.seen < ft.N {
		return nil
	}
	f.fired = true
	if ft.Err == 0 {
		f.crashed = true
		return &fs.PathError{Op: op, Path: path, Err: ErrCrashed}
	}
	return &fs.PathError{Op: op, Path: path, Err: ft.Err}
}

// entry finds path's directory, which must exist, and base name.
func (f *FS) entry(op, path string) (*dir, string, error) {
	d := f.dirs[filepath.Dir(filepath.Clean(path))]
	if d == nil {
		return nil, "", &fs.PathError{Op: op, Path: path, Err: syscall.ENOENT}
	}
	return d, filepath.Base(path), nil
}

// OpenFile supports the access modes, O_CREATE and O_TRUNC.
func (f *FS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.call("open", name, true); err != nil {
		return nil, err
	}
	if flag&^(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC) != 0 {
		return nil, fmt.Errorf("vfstest: open %s: unsupported flags %#x", name, flag)
	}
	d, base, err := f.entry("open", name)
	if err != nil {
		return nil, err
	}
	n := d.view[base]
	switch {
	case n == nil && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.ENOENT}
	case n == nil:
		n = &inode{}
		d.change(dirOp{to: base, node: n})
	case flag&os.O_TRUNC != 0:
		n.write(op{off: 0})
	}
	return &file{fs: f, node: n, dir: d, path: filepath.Clean(name)}, nil
}

// Rename moves a name within oldpath's directory.
func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.call("rename", oldpath, true); err != nil {
		return err
	}
	d, from, err := f.entry("rename", oldpath)
	if err == nil && d.view[from] == nil {
		err = &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.ENOENT}
	}
	if err == nil {
		d.change(dirOp{from: from, to: filepath.Base(newpath), node: d.view[from]})
	}
	return err
}

// Remove unlinks a file.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.call("remove", name, true); err != nil {
		return err
	}
	d, base, err := f.entry("remove", name)
	if err == nil && d.view[base] == nil {
		err = &fs.PathError{Op: "remove", Path: name, Err: syscall.ENOENT}
	}
	if err == nil {
		d.change(dirOp{from: base})
	}
	return err
}

// MkdirAll makes path and its parents.
func (f *FS) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.call("mkdir", path, false); err != nil {
		return err
	}
	for p := filepath.Clean(path); f.dirs[p] == nil; p = filepath.Dir(p) {
		f.dirs[p] = &dir{view: map[string]*inode{}, durable: map[string]*inode{}}
	}
	return nil
}

// SyncDir makes dir's pending creates, renames and removes durable.
func (f *FS) SyncDir(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.call("sync", path, true); err != nil {
		return err
	}
	d := f.dirs[filepath.Clean(path)]
	if d == nil {
		return &fs.PathError{Op: "sync", Path: path, Err: syscall.ENOENT}
	}
	for _, o := range d.pending {
		o.apply(d.durable)
	}
	d.pending = nil
	return nil
}

// file is an open handle.
type file struct {
	fs     *FS
	node   *inode
	dir    *dir
	path   string
	off    int64
	closed bool
}

// start starts a call on the handle under the disk's lock, naming the file
// by its current name (a rename since the open changed it) for faults.
func (h *file) start(op string, counted bool) (unlock func(), err error) {
	h.fs.mu.Lock()
	path := h.path
	for name, n := range h.dir.view {
		if n == h.node {
			path = filepath.Join(filepath.Dir(h.path), name)
		}
	}
	if err = h.fs.call(op, path, counted); err == nil && h.closed {
		err = &fs.PathError{Op: op, Path: path, Err: os.ErrClosed}
	}
	return h.fs.mu.Unlock, err
}

func (h *file) Read(p []byte) (int, error) {
	n, err := h.ReadAt(p, h.off)
	h.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

func (h *file) ReadAt(p []byte, off int64) (int, error) {
	unlock, err := h.start("read", false)
	defer unlock()
	if err != nil {
		return 0, err
	}
	if off >= int64(len(h.node.view)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.view[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *file) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.off)
	h.off += int64(n)
	return n, err
}

func (h *file) WriteAt(p []byte, off int64) (int, error) {
	unlock, err := h.start("write", true)
	defer unlock()
	if err != nil {
		return 0, err
	}
	h.node.write(op{off: off, data: slices.Clone(p)})
	return len(p), nil
}

// Seek supports io.SeekStart and io.SeekEnd.
func (h *file) Seek(offset int64, whence int) (int64, error) {
	unlock, err := h.start("seek", false)
	defer unlock()
	if err != nil {
		return 0, err
	}
	if whence == io.SeekEnd {
		offset += int64(len(h.node.view))
	}
	if offset < 0 {
		return 0, &fs.PathError{Op: "seek", Path: h.path, Err: syscall.EINVAL}
	}
	h.off = offset
	return offset, nil
}

func (h *file) Truncate(size int64) error {
	unlock, err := h.start("truncate", true)
	defer unlock()
	if err == nil {
		h.node.write(op{off: size})
	}
	return err
}

func (h *file) Sync() error {
	unlock, err := h.start("sync", true)
	defer unlock()
	if err != nil {
		if !h.fs.crashed {
			// An fsync error: the writes it failed to flush never reach
			// the disk, though reads still see them.
			h.node.pending = nil
		}
		return err
	}
	for _, o := range h.node.pending {
		h.node.durable = apply(h.node.durable, o)
	}
	h.node.pending = nil
	return nil
}

func (h *file) Close() error {
	unlock, err := h.start("close", false)
	defer unlock()
	h.closed = true
	return err
}
