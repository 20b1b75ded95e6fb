package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"ordxml/internal/vfs/vfstest"
)

func openLog(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(path, nil)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	return l
}

// collect replays every record into a slice.
func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(from, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openLog(t, path)
	for i := 0; i < 10; i++ {
		lsn, err := l.AppendSync(byte(i%3+1), []byte(fmt.Sprintf("body-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = openLog(t, path)
	defer l.Close()
	recs := collect(t, l, 0)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Kind != byte(i%3+1) || string(r.Body) != fmt.Sprintf("body-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Replay from an offset skips the prefix.
	if got := collect(t, openLog(t, path), 7); len(got) != 3 || got[0].LSN != 8 {
		t.Fatalf("replay from 7 = %+v", got)
	}
	// Appending resumes the sequence.
	lsn, err := l.AppendSync(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("resumed lsn = %d, want 11", lsn)
	}
}

// TestTornTailEveryPrefix is the core torn-write property: for every prefix
// of a valid log file, Open must succeed and recover a prefix of the
// appended records — never an error, never a corrupt record.
func TestTornTailEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	l := openLog(t, full)
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("record-number-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cl, err := Open(path, nil)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		recs := collect(t, cl, 0)
		for i, r := range recs {
			if r.LSN != uint64(i+1) || string(r.Body) != fmt.Sprintf("record-number-%d", i) {
				t.Fatalf("cut=%d: record %d corrupt: %+v", cut, i, r)
			}
		}
		// A full frame survives iff the cut is past its last byte.
		if cut == len(data) && len(recs) != n {
			t.Fatalf("cut=%d (full): recovered %d records, want %d", cut, len(recs), n)
		}
		// The recovered log must accept appends at the right LSN.
		lsn, err := cl.AppendSync(2, []byte("after"))
		if err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if lsn != uint64(len(recs)+1) {
			t.Fatalf("cut=%d: resumed lsn %d after %d records", cut, lsn, len(recs))
		}
		cl.Close()
	}
}

func TestCorruptPayloadTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openLog(t, path)
	for i := 0; i < 3; i++ {
		if _, err := l.AppendSync(1, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte in the last record's payload.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l = openLog(t, path)
	defer l.Close()
	if recs := collect(t, l, 0); len(recs) != 2 {
		t.Fatalf("recovered %d records after corruption, want 2", len(recs))
	}
	st, _ := os.Stat(path)
	if st.Size() >= int64(len(data)) {
		t.Fatalf("corrupt tail not truncated: size %d", st.Size())
	}
}

func TestNotAWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(path, []byte("this is definitely not a WAL file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Fatal("opening a non-WAL file should fail")
	}
}

func TestRotatePreservesLSNs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openLog(t, path)
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.AppendSync(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendSync(1, []byte("post-rotate"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("post-rotate lsn = %d, want 6", lsn)
	}
	if st := l.Stats(); st.Rotations != 1 {
		t.Fatalf("rotations = %d", st.Rotations)
	}
	l.Close()

	// The rotated file contains only the post-rotate record.
	l = openLog(t, path)
	recs := collect(t, l, 0)
	if len(recs) != 1 || recs[0].LSN != 6 || string(recs[0].Body) != "post-rotate" {
		t.Fatalf("after rotate: %+v", recs)
	}
}

func TestEnsureNextLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openLog(t, path)
	defer l.Close()
	l.EnsureNextLSN(100)
	lsn, err := l.AppendSync(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 100 {
		t.Fatalf("lsn = %d, want 100", lsn)
	}
	l.EnsureNextLSN(50) // never lowers
	if got := l.LastLSN(); got != 100 {
		t.Fatalf("LastLSN = %d", got)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openLog(t, path)
	const writers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.AppendSync(1, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != writers*per || st.DurableLSN != writers*per {
		t.Fatalf("stats = %+v", st)
	}
	if st.Fsyncs > st.Appends {
		t.Fatalf("more fsyncs (%d) than appends (%d)?", st.Fsyncs, st.Appends)
	}
	l.Close()
	l = openLog(t, path)
	defer l.Close()
	if recs := collect(t, l, 0); len(recs) != writers*per {
		t.Fatalf("recovered %d records", len(recs))
	}
}

// TestInjectedSyncErrorIsSticky: a failed fsync fails the append and every
// later one, and the disk keeps only what was acknowledged.
func TestInjectedSyncErrorIsSticky(t *testing.T) {
	disk := vfstest.New()
	disk.MkdirAll("/d", 0o755)
	l, err := OpenFS(disk, "/d/wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSync(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	disk.Arm(vfstest.Fault{Op: "sync", Name: "wal.log", N: 1, Err: syscall.EIO})
	if _, err := l.AppendSync(1, []byte("doomed")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want the injected EIO, got %v", err)
	}
	// The log is fail-stop after a sync failure.
	if _, err := l.AppendSync(1, []byte("refused")); err == nil {
		t.Fatal("append after failure should be refused")
	}
	l.Close()
	l, err = OpenFS(disk.Image(vfstest.Synced, nil), "/d/wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if recs := collect(t, l, 0); len(recs) != 1 || string(recs[0].Body) != "ok" {
		t.Fatalf("recovered %+v", recs)
	}
}

// TestInjectedPartialWriteTornTail: a crash before a record's fsync keeps
// none, some sectors or all of it; reopening truncates a torn record away
// and appends resume after the last whole one.
func TestInjectedPartialWriteTornTail(t *testing.T) {
	disk := vfstest.New()
	disk.MkdirAll("/d", 0o755)
	l, err := OpenFS(disk, "/d/wal.log", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSync(1, []byte("first-record")); err != nil {
		t.Fatal(err)
	}
	firstEnd := l.Stats().SizeBytes
	disk.Arm(vfstest.Fault{Op: "sync", Name: "wal.log", N: 1})
	big := bytes.Repeat([]byte("torn-record "), 200)
	if _, err := l.AppendSync(1, big); !errors.Is(err, vfstest.ErrCrashed) {
		t.Fatalf("want the crash, got %v", err)
	}
	torn := 0
	for seed := int64(0); seed < 20; seed++ {
		img := disk.Image(vfstest.Prefixes, rand.New(rand.NewSource(seed)))
		f, err := img.OpenFile("/d/wal.log", os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Seek(0, io.SeekEnd)
		f.Close()
		l, err := OpenFS(img, "/d/wal.log", nil)
		if err != nil {
			t.Fatal(err)
		}
		recs := collect(t, l, 0)
		if len(recs) == 2 && bytes.Equal(recs[1].Body, big) {
			l.Close()
			continue
		}
		if len(recs) != 1 || string(recs[0].Body) != "first-record" {
			t.Fatalf("seed %d: recovered %+v", seed, recs)
		}
		if size > firstEnd {
			torn++
		}
		if lsn, err := l.AppendSync(1, []byte("resume")); err != nil || lsn != 2 {
			t.Fatalf("seed %d: resume: lsn=%d err=%v", seed, lsn, err)
		}
		l.Close()
	}
	if torn == 0 {
		t.Fatal("no crash image of 20 tore the record")
	}
}

func TestReplayAfterAppendRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openLog(t, path)
	defer l.Close()
	if _, err := l.AppendSync(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(0, func(Record) error { return nil }); err == nil {
		t.Fatal("Replay after Append should be rejected")
	}
}

func TestBodyCodecRoundTrip(t *testing.T) {
	var w BodyWriter
	w.Uint(42)
	w.Int(-7)
	w.String("héllo")
	w.Bytes([]byte{0, 1, 2})
	w.String("")
	r := NewBodyReader(w.Finish())
	if v := r.Uint(); v != 42 {
		t.Fatalf("uint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("int = %d", v)
	}
	if v := r.String(); v != "héllo" {
		t.Fatalf("string = %q", v)
	}
	if v := r.Bytes(); len(v) != 3 || v[2] != 2 {
		t.Fatalf("bytes = %v", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty string = %q", v)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// Reading past the end fails stickily.
	if r.Uint(); r.Err() == nil {
		t.Fatal("over-read should set the error")
	}
}

func TestBodyReaderTruncated(t *testing.T) {
	var w BodyWriter
	w.String("a longer string payload")
	full := w.Finish()
	for cut := 0; cut < len(full); cut++ {
		r := NewBodyReader(full[:cut])
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("cut=%d: truncated body should error", cut)
		}
	}
}
