// Package wal implements a write-ahead log of logical store mutations: an
// append-only file of length-prefixed, CRC32-checksummed records with
// monotonically increasing sequence numbers (LSNs), group fsync, and
// torn-tail recovery that truncates a half-written final record instead of
// failing.
//
// The log stores *logical* operations (the ordered-XML layer's record
// encoding is opaque bytes here), so replay is a redo pass: reload the last
// snapshot, then re-apply every record with an LSN past the snapshot's.
// Appends are acknowledged only after fsync; a group-commit protocol lets
// concurrent appenders share one write+fsync.
//
// Failure handling is fail-stop: after any write or fsync error the log
// refuses further appends (the file tail state is unknowable), and the next
// Open truncates whatever torn tail the failure left behind.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ordxml/internal/obs"
	olog "ordxml/internal/obs/log"
	"ordxml/internal/vfs"
)

// Stats is a point-in-time summary of a log's activity since Open.
type Stats struct {
	// Appends counts records appended.
	Appends int64
	// AppendedBytes counts framed bytes appended (headers included).
	AppendedBytes int64
	// Fsyncs counts fsync calls on the log file.
	Fsyncs int64
	// Rotations counts Rotate calls that completed.
	Rotations int64
	// LastLSN is the highest LSN handed out (0 when none).
	LastLSN uint64
	// DurableLSN is the highest LSN known fsynced to disk.
	DurableLSN uint64
	// SizeBytes is the current log file size, durable bytes only.
	SizeBytes int64
}

// metrics are the log's obs instruments, resolved once at Open.
type metrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	rotations   *obs.Counter
	replayed    *obs.Counter
	appendLat   *obs.Histogram
	fsyncLat    *obs.Histogram
	lastLSN     *obs.Gauge
	sizeBytes   *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		appends:     reg.Counter("wal.appends"),
		appendBytes: reg.Counter("wal.append.bytes"),
		fsyncs:      reg.Counter("wal.fsyncs"),
		rotations:   reg.Counter("wal.rotations"),
		replayed:    reg.Counter("wal.replay.records"),
		appendLat:   reg.Histogram("wal.append.latency"),
		fsyncLat:    reg.Histogram("wal.fsync.latency"),
		lastLSN:     reg.Gauge("wal.last_lsn"),
		sizeBytes:   reg.Gauge("wal.size_bytes"),
	}
}

// Log is one write-ahead log file. Safe for concurrent use.
type Log struct {
	fs   vfs.FS
	path string

	mu      sync.Mutex
	cond    *sync.Cond // signals completion of a group sync
	f       vfs.File
	pending []byte // framed records appended but not yet written
	nextLSN uint64 // LSN the next Append hands out
	lastIn  uint64 // last LSN placed in pending (0 = none yet)
	durable uint64 // highest LSN fsynced
	size    int64  // durable file size
	syncing bool   // a group-commit leader is writing
	failed  error  // sticky write/fsync failure; log refuses further appends

	stats struct {
		appends, appendedBytes, fsyncs, rotations int64
	}
	met *metrics
	log *olog.Logger
}

// Open is OpenFS on the operating system's file system.
func Open(path string, reg *obs.Registry) (*Log, error) { return OpenFS(vfs.OS, path, reg) }

// OpenFS opens (creating if absent) the log at path on fsys, validates its
// header, scans the records and truncates a torn tail, leaving the log
// positioned to append with the next sequential LSN. A rotation's temporary
// file that a crash left behind is removed. Metrics are registered on reg (a
// private registry is used when reg is nil).
func OpenFS(fsys vfs.FS, path string, reg *obs.Registry) (*Log, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if err := fsys.Remove(rotatePath(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wal: remove leftover rotation file: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{fs: fsys, path: path, f: f, nextLSN: 1, met: newMetrics(reg), log: reg.Log()}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	// Readiness gauge: how far the assigned-LSN horizon runs ahead of the
	// fsynced one. Nonzero only while a group commit is in flight; a stuck
	// value signals a wedged or failed log.
	reg.RegisterFunc("wal.durable_lag", func() int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return int64((l.nextLSN - 1) - l.durable)
	})
	return l, nil
}

// Failed returns the sticky write/fsync failure that put the log in its
// fail-stop state, or nil while the log is healthy. Health endpoints poll it.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// recover validates the header (writing one into a fresh or torn-created
// file), scans records, and truncates the file after the last valid record.
func (l *Log) recover() error {
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("wal: size of %s: %w", l.path, err)
	}
	if size < int64(len(fileMagic)) {
		// Fresh log, or a crash landed between creation and the header
		// fsync. No record can exist yet; initialize the header.
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: init %s: %w", l.path, err)
		}
		if _, err := l.f.WriteAt([]byte(fileMagic), 0); err != nil {
			return fmt.Errorf("wal: init %s: %w", l.path, err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: init %s: %w", l.path, err)
		}
		if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("wal: init %s: %w", l.path, err)
		}
		if _, err := l.f.Seek(int64(len(fileMagic)), io.SeekStart); err != nil {
			return fmt.Errorf("wal: seek %s: %w", l.path, err)
		}
		l.size = int64(len(fileMagic))
		return nil
	}
	end, last, err := scan(l.f, l.path, nil)
	if err != nil {
		return err
	}
	if end < size {
		// Torn tail: a crash interrupted a record write. Everything past the
		// last valid record is unacknowledged by construction (acknowledgment
		// follows fsync of a complete record), so truncation loses nothing
		// that was promised.
		l.log.Warn("wal: truncating torn tail",
			olog.Str("path", l.path),
			olog.Int("torn_bytes", size-end),
			olog.Int("valid_bytes", end))
		if err := l.f.Truncate(end); err != nil {
			return fmt.Errorf("wal: truncate torn tail of %s: %w", l.path, err)
		}
	}
	// Replay builds on every record just scanned, and a record whose fsync
	// failed stays readable without ever reaching the disk (Linux marks its
	// pages clean). Writing the records again before the fsync makes what
	// recovery reads what the disk holds.
	valid := make([]byte, end)
	if _, err := l.f.ReadAt(valid, 0); err != nil {
		return fmt.Errorf("wal: read %s: %w", l.path, err)
	}
	if _, err := l.f.WriteAt(valid, 0); err != nil {
		return fmt.Errorf("wal: rewrite %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	l.size = end
	if last > 0 {
		l.nextLSN = last + 1
		l.durable = last
		l.met.lastLSN.SetMax(int64(last))
	}
	l.met.sizeBytes.Set(l.size)
	return nil
}

// scan reads records from the start of f, calling fn (when non-nil) for each
// valid record, and returns the offset just past the last valid record plus
// the last valid LSN. Invalid data — short frame, bad CRC, absurd length,
// non-sequential LSN — ends the scan without error: the caller treats the
// remainder as a torn tail.
func scan(f vfs.File, path string, fn func(Record) error) (end int64, lastLSN uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, fmt.Errorf("wal: read header of %s: %w", path, err)
	}
	if string(magic) != fileMagic {
		return 0, 0, fmt.Errorf("wal: %s is not an ordxml WAL file (bad magic %q)", path, magic)
	}
	end = int64(len(fileMagic))
	hdr := make([]byte, frameHeader)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return end, lastLSN, nil // clean EOF or torn frame header
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if plen == 0 || plen > maxRecord {
			return end, lastLSN, nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return end, lastLSN, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return end, lastLSN, nil // corrupt payload
		}
		lsn, kind, body, perr := decodePayload(payload)
		if perr != nil || lsn == 0 {
			return end, lastLSN, nil
		}
		if lastLSN != 0 && lsn != lastLSN+1 {
			return end, lastLSN, nil // out-of-sequence record
		}
		if fn != nil {
			rec := Record{LSN: lsn, Kind: kind, Body: append([]byte(nil), body...)}
			if err := fn(rec); err != nil {
				return end, lastLSN, err
			}
		}
		lastLSN = lsn
		end += int64(frameHeader) + int64(plen)
	}
}

// Replay re-reads the log from the start and calls fn for every record with
// LSN > from, in order. It must run before the first Append on this Log
// (recovery replays into the store, then appending resumes).
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stats.appends > 0 || len(l.pending) > 0 {
		return fmt.Errorf("wal: Replay after Append on %s", l.path)
	}
	_, _, err := scan(l.f, l.path, func(rec Record) error {
		if rec.LSN <= from {
			return nil
		}
		l.met.replayed.Inc()
		return fn(rec)
	})
	if serr := l.seekEndLocked(); serr != nil && err == nil {
		err = serr
	}
	return err
}

func (l *Log) seekEndLocked() error {
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	return nil
}

// EnsureNextLSN raises the next LSN to at least next. Recovery calls this so
// that after a checkpoint rotates the log empty, LSNs continue from the
// snapshot's high-water mark instead of restarting.
func (l *Log) EnsureNextLSN(next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextLSN < next {
		l.nextLSN = next
		if next > 1 {
			l.durable = next - 1
			l.met.lastLSN.SetMax(int64(next - 1))
		}
	}
}

// LastLSN returns the most recently assigned LSN (0 when none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// DurableLSN returns the highest LSN known fsynced.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Append assigns the next LSN to a record and buffers it without forcing it
// to disk; pair with Sync (or use AppendSync) to make it durable.
func (l *Log) Append(kind byte, body []byte) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	lsn := l.nextLSN
	l.nextLSN++
	before := len(l.pending)
	l.pending = appendFrame(l.pending, lsn, kind, body)
	l.lastIn = lsn
	added := int64(len(l.pending) - before)
	l.stats.appends++
	l.stats.appendedBytes += added
	l.met.appends.Inc()
	l.met.appendBytes.Add(added)
	l.met.lastLSN.SetMax(int64(lsn))
	l.met.appendLat.Observe(time.Since(start))
	return lsn, nil
}

// Sync forces every buffered record to disk (write + fsync) and returns when
// they are durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked(l.lastIn)
}

// AppendSync appends a record and returns once it is durable. Concurrent
// callers group-commit: one leader writes and fsyncs every pending record,
// and the others just wait for their LSN to become durable.
func (l *Log) AppendSync(kind byte, body []byte) (uint64, error) {
	lsn, err := l.Append(kind, body)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.commitLocked(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// commitLocked blocks until every record up to target is durable, electing
// this goroutine as the group-commit leader when no sync is in flight.
// Caller holds l.mu.
func (l *Log) commitLocked(target uint64) error {
	for l.durable < target {
		if l.failed != nil {
			return l.failed
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		// Become the leader: take the whole pending buffer, release the lock
		// for the disk work, then publish the new durable horizon.
		l.syncing = true
		buf := l.pending
		flushTo := l.lastIn
		l.pending = nil
		l.mu.Unlock()
		err := l.writeAndSync(buf)
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.failed = fmt.Errorf("wal: log failed, refusing further appends: %w", err)
			l.log.Error("wal: log failed, refusing further appends",
				olog.Str("path", l.path), olog.Err(err))
			l.cond.Broadcast()
			return l.failed
		}
		l.durable = flushTo
		l.size += int64(len(buf))
		l.met.sizeBytes.Set(l.size)
		l.cond.Broadcast()
	}
	return nil
}

// writeAndSync writes buf at the log tail and fsyncs. Called without l.mu by
// the group-commit leader; the file offset is only ever touched by the
// single active leader (or by Rotate, which excludes appends by contract).
func (l *Log) writeAndSync(buf []byte) error {
	if len(buf) > 0 {
		if _, err := l.f.Write(buf); err != nil {
			return fmt.Errorf("append to %s: %w", l.path, err)
		}
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("fsync %s: %w", l.path, err)
	}
	l.stats.fsyncs++
	l.met.fsyncs.Inc()
	l.met.fsyncLat.Observe(time.Since(start))
	return nil
}

// Rotate atomically replaces the log with an empty one, preserving the LSN
// sequence. The caller must guarantee no concurrent appends (the store holds
// its mutation lock across checkpoint). Used after a snapshot has been
// durably renamed into place: the records below the snapshot LSN are then
// redundant.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if err := l.commitLocked(l.lastIn); err != nil {
		return err
	}
	tmp := rotatePath(l.path)
	nf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate %s: %w", l.path, err)
	}
	cleanup := func() {
		nf.Close()
		l.fs.Remove(tmp)
	}
	if _, err := nf.Write([]byte(fileMagic)); err != nil {
		cleanup()
		return fmt.Errorf("wal: rotate %s: %w", l.path, err)
	}
	if err := nf.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("wal: rotate %s: %w", l.path, err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		cleanup()
		return fmt.Errorf("wal: rotate %s: %w", l.path, err)
	}
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		// The rename already happened; without the directory fsync the
		// log's on-disk identity is unknowable, so fail-stop.
		nf.Close()
		l.failed = fmt.Errorf("wal: rotate %s: %w", l.path, err)
		return l.failed
	}
	l.f.Close()
	l.f = nf
	l.size = int64(len(fileMagic))
	l.stats.rotations++
	l.met.rotations.Inc()
	l.met.sizeBytes.Set(l.size)
	return nil
}

// Stats returns the log's activity summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:       l.stats.appends,
		AppendedBytes: l.stats.appendedBytes,
		Fsyncs:        l.stats.fsyncs,
		Rotations:     l.stats.rotations,
		LastLSN:       l.nextLSN - 1,
		DurableLSN:    l.durable,
		SizeBytes:     l.size,
	}
}

// Close syncs buffered records and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.commitLocked(l.lastIn)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotatePath is the temporary file Rotate builds the empty log in.
func rotatePath(path string) string { return path + ".rotate" }
