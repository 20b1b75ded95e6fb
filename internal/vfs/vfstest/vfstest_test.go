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
	"strings"
	"syscall"
	"testing"

	"ordxml/internal/vfs"
)

// script runs the calls the page file and the log rely on and returns one
// line per result: reads past the end, growth by Truncate reading back
// zeros, O_TRUNC, rename over an existing file, seek then write, sizes by
// Seek and missing names.
func script(fsys vfs.FS, dir string) []string {
	var out []string
	note := func(format string, args ...any) {
		for i, a := range args {
			if err, ok := a.(error); ok || a == nil {
				args[i] = errKind(err)
			}
		}
		out = append(out, fmt.Sprintf(format, args...))
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	note("mkdir %v", fsys.MkdirAll(dir, 0o755))
	_, err := fsys.OpenFile(path("a"), os.O_RDWR, 0o644)
	note("open missing %v", err)
	f, err := fsys.OpenFile(path("a"), os.O_RDWR|os.O_CREATE, 0o644)
	note("create %v", err)
	n, err := f.WriteAt([]byte("hello"), 3)
	note("writeat %d %v", n, err)
	buf := make([]byte, 10)
	n, err = f.ReadAt(buf, 0)
	note("readat %d %q %v", n, buf[:n], err)
	n, err = f.ReadAt(buf, 8)
	note("readat eof %d %v", n, err)
	n, err = f.ReadAt(buf[:4], 2)
	note("readat inside %d %q %v", n, buf[:n], err)
	note("truncate grow %v", f.Truncate(12))
	n, err = f.ReadAt(buf, 6)
	note("readat zeros %d %q %v", n, buf[:n], err)
	off, err := f.Seek(-2, io.SeekEnd)
	note("seek end %d %v", off, err)
	n, err = f.Write([]byte("XYZ"))
	note("write %d %v", n, err)
	off, err = f.Seek(1, io.SeekStart)
	note("seek start %d %v", off, err)
	n, err = f.Read(buf[:3])
	note("read %d %q %v", n, buf[:n], err)
	_, err = f.Seek(-1, io.SeekStart)
	note("seek negative %v", err)
	note("truncate shrink %v", f.Truncate(4))
	n, err = f.ReadAt(buf, 0)
	note("readat shrunk %d %q %v", n, buf[:n], err)
	note("sync %v", f.Sync())
	note("close %v", f.Close())
	_, err = f.Write([]byte("x"))
	note("write closed %v", err)
	for _, s := range []string{"bbbbbb", "B"} {
		g, err := fsys.OpenFile(path("b"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		note("create b trunc %v", err)
		off, err = g.Seek(0, io.SeekEnd)
		note("size b %d %v", off, err)
		n, err = g.Write([]byte(s))
		note("write b %d %v", n, err)
		note("close b %v", g.Close())
	}
	note("rename over %v", fsys.Rename(path("b"), path("a")))
	_, err = fsys.OpenFile(path("b"), os.O_RDONLY, 0)
	note("open old name %v", err)
	r, err := fsys.OpenFile(path("a"), os.O_RDONLY, 0)
	note("open new name %v", err)
	n, err = r.Read(buf)
	note("read renamed %d %q %v", n, buf[:n], err)
	note("close %v", r.Close())
	note("syncdir %v", fsys.SyncDir(dir))
	note("remove %v", fsys.Remove(path("a")))
	note("remove missing %v", fsys.Remove(path("a")))
	return out
}

// errKind reduces an error to what the store's code distinguishes.
func errKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, fs.ErrNotExist):
		return "not-exist"
	}
	return "error"
}

// TestConformsToOS: the simulated disk answers the script as the operating
// system does.
func TestConformsToOS(t *testing.T) {
	want := script(vfs.OS, filepath.Join(t.TempDir(), "d"))
	got := script(New(), "/d")
	if !slices.Equal(got, want) {
		t.Fatalf("simulated disk:\n%s\nOS:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// contents reads name whole from fsys, or "missing".
func contents(t *testing.T, fsys *FS, name string) string {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return "missing"
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCrashImages: a crash keeps what was synced and what Keep says of the
// rest; after it every call fails.
func TestCrashImages(t *testing.T) {
	d := New()
	d.MkdirAll("/s", 0o755)
	f, _ := d.OpenFile("/s/log", os.O_RDWR|os.O_CREATE, 0o644)
	f.Write([]byte("synced."))
	f.Sync()
	d.SyncDir("/s")
	f.Write([]byte("unsynced"))
	tmp, _ := d.OpenFile("/s/new", os.O_RDWR|os.O_CREATE, 0o644)
	tmp.Write([]byte("manifest"))
	d.Rename("/s/new", "/s/meta")

	d.Arm(Fault{Op: "sync", N: 1})
	if err := tmp.Sync(); !errors.Is(err, ErrCrashed) || !d.Crashed() {
		t.Fatalf("sync at the armed crash: %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after the crash: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after the crash: %v", err)
	}
	img := d.Image(Synced, nil)
	if got := contents(t, img, "/s/log") + " " + contents(t, img, "/s/meta"); got != "synced. missing" {
		t.Fatalf("synced image: %s", got)
	}
	img = d.Image(Names, nil)
	if got := contents(t, img, "/s/log") + " " + contents(t, img, "/s/meta"); got != "synced. " {
		t.Fatalf("names image: %q", got)
	}
	if got := strings.Join(img.List("/s"), " "); got != "log meta" {
		t.Fatalf("names image lists %q", got)
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		img := d.Image(Prefixes, rand.New(rand.NewSource(seed)))
		log := contents(t, img, "/s/log")
		if !strings.HasPrefix("synced.unsynced", log) || !strings.HasPrefix(log, "synced.") {
			t.Fatalf("prefix image holds log %q", log)
		}
		seen[log] = true
	}
	if !seen["synced."] || !seen["synced.unsynced"] {
		t.Fatalf("40 prefix images hold only %v", seen)
	}
}

// TestFailedSync: an fsync error fails the call; the writes it did not flush
// stay readable but never reach the disk, even after a later Sync succeeds.
func TestFailedSync(t *testing.T) {
	d := New()
	d.MkdirAll("/s", 0o755)
	f, _ := d.OpenFile("/s/f", os.O_RDWR|os.O_CREATE, 0o644)
	d.SyncDir("/s")
	f.Write([]byte("lost"))
	d.Arm(Fault{Op: "sync", Name: "f", N: 1, Err: syscall.EIO})
	if err := f.Sync(); !errors.Is(err, syscall.EIO) || !d.Fired() {
		t.Fatalf("armed sync: %v", err)
	}
	f.Write([]byte("kept"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, d, "/s/f"); got != "lostkept" {
		t.Fatalf("reads see %q", got)
	}
	if got := contents(t, d.Image(Synced, nil), "/s/f"); got != "\x00\x00\x00\x00kept" {
		t.Fatalf("the disk holds %q", got)
	}
}
