package ordxml

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ordxml/internal/core/update"
	"ordxml/internal/govern"
	"ordxml/internal/obs"
	olog "ordxml/internal/obs/log"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/pagefile"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/vfs"
	"ordxml/internal/wal"
)

// This file implements the durability subsystem: a durable store keeps its
// heaps and B+trees in an 8 KiB-page file behind a fixed-capacity buffer
// pool, a write-ahead log of logical mutations, and an atomically-replaced
// checkpoint manifest, in one directory:
//
//	<dir>/pages.db      page file holding every heap and index page
//	<dir>/meta.db       checkpoint manifest (schema + page references)
//	<dir>/wal.log       logical mutations since that checkpoint
//
// Every mutating Store entry point follows append-then-apply: the operation
// is encoded as a WAL record and fsynced *before* it touches the engine, so
// an operation that returned success is durable. The pool enforces
// WAL-before-data independently: a dirty page cannot reach pages.db before
// the log is durable through the page's recorded LSN. Recovery = open the
// last checkpoint's manifest (pages fault in on first touch), replay every
// WAL record past the checkpoint's LSN (recorded in store_meta), truncate a
// torn tail, and finish with a deep integrity check. Replay is deterministic
// because every record captures the operation's logical inputs (names, node
// ids, XML text) and the engine's id and order-key allocation is a pure
// function of store state.
//
// Checkpoint shrinks the log and is incremental — only pages dirtied since
// the last checkpoint are written: serialize changed index nodes to fresh
// pages (shadow paging — checkpoint-referenced pages are never overwritten),
// flush the pool's dirty frames, sync pages.db, atomically install the
// manifest, commit the pool's allocator, rotate the WAL. A crash between
// install and rotation is benign — replay skips records at or below the
// checkpoint's LSN.
//
// This file is the only place that knows where a durable store keeps its
// checkpoint. Every file call goes through a vfs.FS: the OS in production,
// a simulated disk that crashes or fails calls in the tests.

// WAL record kinds, one per logical mutation the public API can perform.
const (
	recLoad     byte = 1 // name, xml
	recInsert   byte = 2 // doc, target, mode, fragment
	recDelete   byte = 3 // doc, id
	recSetValue byte = 4 // doc, id, value
	recRename   byte = 5 // doc, id, name
	recMove     byte = 6 // doc, id, target, mode
	recDrop     byte = 7 // doc
	recExec     byte = 8 // sql, row-encoded params
)

// Durable-store file names inside the store directory.
const (
	walFile   = "wal.log"
	pagesFile = "pages.db"
	metaFile  = "meta.db"
)

// DefaultPoolFrames is the buffer-pool capacity OpenDurable uses when
// Options.BufferPoolFrames is not positive (8 MiB of 8 KiB pages). A pool
// smaller than the working set still answers correctly and degrades in
// proportion: under uniform access its hit share is the share of the pages
// it holds, and skewed access does better (DESIGN.md §12).
const DefaultPoolFrames = 1024

// durState is the durable half of a Store; nil for memory-only stores.
type durState struct {
	fs  vfs.FS
	dir string
	log *wal.Log
	// mu serializes logged mutations and checkpoints so the WAL's record
	// order always equals the apply order (replay correctness depends on it).
	mu sync.Mutex

	pool     *bufpool.Pool
	pf       *pagefile.File
	metaPath string

	// closed is set by the first Close; every later entry point on the store
	// fails with ErrClosed instead of touching the released log and page file.
	closed atomic.Bool

	checkpoints *obs.Counter
	ckptLat     *obs.Histogram
	opErrors    *obs.Counter

	// lastCkpt is the wall time of the last completed checkpoint (unix
	// nanoseconds; 0 = none since open). Feeds the wal.checkpoint_age_ms
	// readiness gauge.
	lastCkpt atomic.Int64
}

// Durable reports whether the store was opened with OpenDurable.
func (s *Store) Durable() bool { return s.dur != nil }

// Health returns the store's operational problems; an empty list means the
// store is ready to serve. Today's checks: the write-ahead log's fail-stop
// state (a failed log refuses every further mutation) and the last integrity
// check's outcome. The /debug/readyz endpoint serves this.
func (s *Store) Health() []string {
	var problems []string
	if ok, cause := s.Degraded(); ok {
		problems = append(problems, fmt.Sprintf("degraded: read-only: %s", cause))
	}
	if s.dur != nil {
		if err := s.dur.log.Failed(); err != nil {
			problems = append(problems, fmt.Sprintf("wal: %v", err))
		}
	}
	switch s.db.Registry().Gauge("integrity.last_status").Value() {
	case integrityViolations:
		problems = append(problems, "integrity: last check found violations")
	case integrityError:
		problems = append(problems, "integrity: last check failed to run")
	}
	return problems
}

// OpenDurable opens (or creates) a durable store in dir. When dir holds an
// earlier store, recovery runs: the last checkpoint's manifest is opened,
// the write-ahead log is replayed past it (a torn final record is truncated
// away), and the recovered store must pass the deep integrity check; the
// encoding options in opts are ignored in that case — the checkpoint's own
// win. When dir is fresh, an empty store with opts is created. Either way
// opts.BufferPoolFrames only sizes the buffer pool (see Options).
//
// Close the store to release the log and page files; call Checkpoint
// periodically to bound the log and recovery time.
func OpenDurable(dir string, opts Options) (*Store, error) { return openDurable(vfs.OS, dir, opts) }

// openDurable is OpenDurable on fsys.
func openDurable(fsys vfs.FS, dir string, opts Options) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open durable store: %w", err)
	}
	pagesPath := filepath.Join(dir, pagesFile)
	metaPath := filepath.Join(dir, metaFile)
	// A crash inside installFile leaves its temporary file; it is never the
	// manifest. Then the directory is synced: a manifest or log installed by
	// a checkpoint that failed before its directory sync may not be durable
	// yet, and recovery must not build on names a crash can take back.
	if err := fsys.Remove(tempPath(metaPath)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("open durable store %s: %w", dir, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("open durable store %s: %w", dir, err)
	}
	checkpointed := fileExists(fsys, metaPath)
	// The retired full-snapshot format is refused, not mistaken for a store
	// that was never checkpointed: opening it as one would start empty.
	if snap := filepath.Join(dir, "snapshot.db"); !checkpointed && fileExists(fsys, snap) {
		return nil, fmt.Errorf("open durable store %s: %s is a full-snapshot file, a format this build does not read", dir, snap)
	}

	// Without a manifest nothing in pages.db is durable yet (a crash before
	// the first checkpoint finished), so the page file starts over and
	// recovery is an empty store plus a full WAL replay.
	openPages := pagefile.CreateFS
	if checkpointed {
		openPages = pagefile.OpenFS
	}
	pf, err := openPages(fsys, pagesPath)
	if err != nil {
		return nil, fmt.Errorf("open durable store %s: %w", dir, err)
	}
	pool := bufpool.New(pf, poolFrames(opts))
	var lg *wal.Log
	fail := func(err error) (*Store, error) {
		if lg != nil {
			lg.Close()
		}
		pf.Close()
		return nil, err
	}

	var s *Store
	if checkpointed {
		s, err = openPagedManifest(fsys, metaPath, pool)
	} else {
		s, err = openPagedFresh(pool, opts)
	}
	if err != nil {
		return fail(fmt.Errorf("open durable store %s: %w", dir, err))
	}
	snapLSN, err := readWALLSN(s.db)
	if err != nil {
		return fail(fmt.Errorf("open durable store %s: %w", dir, err))
	}

	if lg, err = wal.OpenFS(fsys, filepath.Join(dir, walFile), s.db.Registry()); err != nil {
		return fail(err)
	}
	opErrors := s.db.Registry().Counter("wal.replay.op_errors")
	logger := s.db.Registry().Log()
	replayStart := time.Now()
	var replayed int64
	if err := lg.Replay(snapLSN, func(rec wal.Record) error {
		// Only a checkpoint rotates the log, and it installs the manifest
		// first: a log whose first record lies past the checkpoint's LSN
		// has lost the records in between to a missing or stale manifest.
		if replayed == 0 && rec.LSN > snapLSN+1 {
			return fmt.Errorf("log starts at LSN %d, past the checkpoint's LSN %d: checkpoint manifest %s is missing or stale",
				rec.LSN, snapLSN, metaPath)
		}
		replayed++
		return s.applyRecord(rec, opErrors)
	}); err != nil {
		return fail(fmt.Errorf("replay %s: %w", filepath.Join(dir, walFile), err))
	}
	if replayed > 0 {
		logger.Info("wal: replay complete",
			olog.Str("dir", dir),
			olog.Int("records", replayed),
			olog.Int("from_lsn", int64(snapLSN)),
			olog.Dur("elapsed", time.Since(replayStart)))
	}
	if n := opErrors.Value(); n > 0 {
		// Expected only when the live run logged an operation before
		// discovering it was invalid; anything beyond a handful suggests a
		// replay determinism bug.
		logger.Warn("wal: replay skipped failing operations",
			olog.Str("dir", dir), olog.Int("op_errors", n))
	}
	lg.EnsureNextLSN(snapLSN + 1)
	// WAL-before-data: flushed pages carry the log position current when
	// they were dirtied, and the log must be durable through it first.
	// Wired after replay — replay holds the log's lock, and pages dirtied
	// by replay need no guard because their records are already on disk.
	pool.CurrentLSN = lg.LastLSN
	pool.EnsureDurable = func(lsn uint64) error {
		if lg.DurableLSN() >= lsn {
			return nil
		}
		return lg.Sync()
	}

	// Recovery ends with the deep integrity check: a store rebuilt from
	// checkpoint + log must be indistinguishable from one that never crashed.
	problems, err := s.CheckIntegrity()
	if err != nil {
		return fail(fmt.Errorf("post-recovery integrity check: %w", err))
	}
	if len(problems) > 0 {
		return fail(fmt.Errorf("post-recovery integrity check found %d violation(s): %s",
			len(problems), strings.Join(problems, "; ")))
	}

	reg := s.db.Registry()
	s.dur = &durState{
		fs:          fsys,
		dir:         dir,
		log:         lg,
		pool:        pool,
		pf:          pf,
		metaPath:    metaPath,
		checkpoints: reg.Counter("wal.checkpoints"),
		ckptLat:     reg.Histogram("wal.checkpoint.latency"),
		opErrors:    opErrors,
	}
	// A failed page write (flush or checkpoint) leaves disk state behind
	// the pool's idea of it; the store degrades to read-only — snapshot
	// reads still serve from memory, mutations are refused until reopen.
	pool.OnWriteError = func(err error) {
		s.enterDegraded(fmt.Sprintf("page write failed: %v", err))
	}
	// Readiness gauge: milliseconds since the last completed checkpoint
	// (-1 until one completes). Pair with wal.size_bytes to decide when the
	// log has grown stale enough to warrant a checkpoint.
	dur := s.dur
	reg.RegisterFunc("wal.checkpoint_age_ms", func() int64 {
		ns := dur.lastCkpt.Load()
		if ns == 0 {
			return -1
		}
		return time.Since(time.Unix(0, ns)).Milliseconds()
	})
	return s, nil
}

func fileExists(fsys vfs.FS, path string) bool {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// poolFrames resolves the pool capacity of a durable store.
func poolFrames(opts Options) int {
	if opts.BufferPoolFrames > 0 {
		return opts.BufferPoolFrames
	}
	return DefaultPoolFrames
}

// openPagedFresh creates an empty store whose storage pages through pool.
func openPagedFresh(pool *bufpool.Pool, opts Options) (*Store, error) {
	iopts, err := internalOpts(opts)
	if err != nil {
		return nil, err
	}
	return bootstrapStore(sqldb.OpenPooled(pool), iopts)
}

// openPagedManifest opens the store a checkpoint manifest describes, over
// pool. Table data stays on disk and faults in on first touch.
func openPagedManifest(fsys vfs.FS, path string, pool *bufpool.Pool) (*Store, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := sqldb.LoadPaged(f, pool)
	if err != nil {
		return nil, err
	}
	return restoredStore(db)
}

// Close syncs and releases the write-ahead log and the page file. Closing a
// closed store, or a memory-only store (which has nothing to release), is a
// no-op; every other call on a closed durable store fails with ErrClosed.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	if s.dur.closed.Swap(true) {
		return nil
	}
	err := s.dur.log.Close()
	if cerr := s.dur.pf.Close(); err == nil {
		err = cerr
	}
	return err
}

// closedErr returns ErrClosed once a durable store has been closed.
func (s *Store) closedErr() error {
	if s.dur != nil && s.dur.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Checkpoint makes the store's current state durable without the log and
// rotates the write-ahead log, bounding recovery to the log written after
// this call. It is incremental: only pages dirtied since the last checkpoint
// are flushed, followed by a small manifest install. The checkpoint records
// the log's high-water LSN, so replay after a crash — even one landing
// between the manifest install and the log rotation — never re-applies an
// operation the checkpoint already contains.
//
//ordlint:ignore walfirst checkpoint metadata records the WAL position itself; logging it would be circular (see CheckpointCtx)
func (s *Store) Checkpoint() error { return s.CheckpointCtx(context.Background()) }

// CheckpointCtx is Checkpoint with a caller context: with the request tracer
// enabled the checkpoint records a span tree (manifest write, pool flush,
// install, log rotation), and completion is structured-logged.
func (s *Store) CheckpointCtx(ctx context.Context) error {
	if s.dur == nil {
		return fmt.Errorf("store is not durable (open it with OpenDurable)")
	}
	ctx, root := s.rootSpan(ctx, "checkpoint")
	defer root.End()
	sp := obs.FromContext(ctx)
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	if err := s.closedErr(); err != nil {
		return err
	}
	// A degraded store's pages may be behind its pool: it writes no
	// checkpoint until a reopen has recovered it.
	if err := s.readOnlyErr(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	start := time.Now()
	lsn := s.dur.log.LastLSN()
	// The wal_lsn row is checkpoint metadata, deliberately outside the
	// WAL-first contract: it records how much of the log the checkpoint
	// already contains, so appending it to the log it describes would be
	// circular, and replay restores it from the checkpoint instead.
	//ordlint:ignore walfirst checkpoint metadata write records the WAL position; logging it to the WAL it describes would be circular
	if err := s.writeWALLSN(lsn); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	logger := s.db.Registry().Log()
	err := s.checkpointPaged(sp)
	if err == nil {
		rsp := sp.StartChild("wal.rotate")
		if err = s.dur.log.Rotate(); err != nil {
			err = fmt.Errorf("checkpoint: rotate log: %w", err)
		}
		rsp.End()
	}
	if err != nil {
		// A checkpoint that fails part way leaves a disk the next one
		// cannot build on: a failed fsync may have dropped pages the pool
		// now holds clean, and a manifest renamed but not yet durable may
		// reach the disk later, naming pages the pool goes on to reuse.
		// The store degrades to read-only until a reopen recovers it.
		s.enterDegraded(fmt.Sprintf("checkpoint failed: %v", err))
		logger.Error("checkpoint failed", olog.Str("dir", s.dur.dir), olog.Err(err))
		return err
	}
	s.dur.checkpoints.Inc()
	s.dur.ckptLat.Observe(time.Since(start))
	s.dur.lastCkpt.Store(time.Now().UnixNano())
	logger.Info("checkpoint complete",
		olog.Str("dir", s.dur.dir),
		olog.Int("lsn", int64(lsn)),
		olog.Dur("elapsed", time.Since(start)))
	sp.Arg("lsn", int64(lsn))
	return nil
}

// checkpointPaged is the incremental checkpoint body:
//
//  1. serialize changed index nodes to fresh pages (shadow paging — pages
//     the previous checkpoint references are never overwritten, so a crash
//     anywhere below leaves it intact) and build the manifest;
//  2. flush every dirty frame and sync the page file;
//  3. install the manifest atomically (temp + fsync + rename + dir sync);
//  4. commit the pool's allocator: pages the old checkpoint no longer
//     references become reusable. The durability mutex keeps out writers,
//     which alone allocate and free ids, from step 1 to here.
func (s *Store) checkpointPaged(sp *obs.ActiveSpan) error {
	msp := sp.StartChild("checkpoint.manifest")
	var manifest bytes.Buffer
	err := s.db.DumpPaged(&manifest)
	msp.End()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	fsp := sp.StartChild("bufpool.flush_all")
	if err = s.dur.pool.FlushAll(); err == nil {
		err = s.dur.pf.Sync()
	}
	fsp.End()
	if err != nil {
		return fmt.Errorf("checkpoint: flush pages: %w", err)
	}
	// A page write that failed earlier in the checkpoint (an eviction while
	// the manifest was built) degraded the store even if the flush then
	// succeeded: install nothing, so the previous checkpoint stays current.
	if err := s.readOnlyErr(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	isp := sp.StartChild("checkpoint.install")
	defer isp.End()
	if err := installFile(s.dur.fs, s.dur.metaPath, manifest.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.dur.pool.CommitCheckpoint()
	return nil
}

// installFile atomically replaces path with data: the bytes go to a
// temporary file in the same directory, which is synced, renamed over path,
// and made durable by syncing the directory. A crash at any point leaves
// either the old complete file or the new one — never a partial one.
func installFile(fsys vfs.FS, path string, data []byte) error {
	tmp := tempPath(path)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// tempPath is the temporary file installFile writes path's contents to.
func tempPath(path string) string { return path + ".tmp" }

// writeWALLSN upserts the log high-water mark into store_meta so checkpoints
// are self-describing about how much of the log they contain. The write is
// deliberately not WAL-logged: it is checkpoint metadata, not a mutation.
func (s *Store) writeWALLSN(lsn uint64) error {
	v := strconv.FormatUint(lsn, 10)
	n, err := s.db.Exec(`UPDATE store_meta SET v = ? WHERE k = ?`, sqldb.S(v), sqldb.S("wal_lsn"))
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = s.db.Exec(`INSERT INTO store_meta VALUES (?, ?)`, sqldb.S("wal_lsn"), sqldb.S(v))
	}
	return err
}

// readWALLSN reads the checkpoint's log high-water mark (0 for a store that
// was never checkpointed).
func readWALLSN(db *sqldb.DB) (uint64, error) {
	res, err := db.Query(`SELECT v FROM store_meta WHERE k = ?`, sqldb.S("wal_lsn"))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, nil
	}
	lsn, err := strconv.ParseUint(res.Rows[0][0].Text(), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store meta wal_lsn: %w", err)
	}
	return lsn, nil
}

// logOp appends one operation record and makes it durable before the caller
// applies it. For a durable store it returns with the operation mutex held
// and hands back the release; callers run the apply under that lock so WAL
// order equals apply order. For memory-only stores it is free. When ctx
// carries an active trace span the append+fsync is recorded as a
// "wal.append_sync" child annotated with the assigned LSN.
func (s *Store) logOp(ctx context.Context, kind byte, encode func(*wal.BodyWriter)) (unlock func(), err error) {
	// Cancellation is only honored here, before any durable effect: once the
	// record is appended the operation always completes (a mutation is never
	// abandoned between its WAL record and its apply).
	if err := govern.CtxErr(ctx); err != nil {
		return nil, err
	}
	if err := s.readOnlyErr(); err != nil {
		return nil, err
	}
	if s.dur == nil {
		return func() {}, nil
	}
	s.dur.mu.Lock()
	if err := s.closedErr(); err != nil {
		s.dur.mu.Unlock()
		return nil, err
	}
	var w wal.BodyWriter
	encode(&w)
	sp := obs.FromContext(ctx).StartChild("wal.append_sync")
	lsn, err := s.dur.log.AppendSync(kind, w.Finish())
	if err != nil {
		sp.End()
		s.dur.mu.Unlock()
		// The failed append poisons the log (fail-stop); the store degrades to
		// read-only so snapshot reads keep serving. The caller gets the I/O
		// error itself — later mutations get ErrReadOnly.
		s.enterDegraded(fmt.Sprintf("write-ahead log append failed: %v", err))
		return nil, fmt.Errorf("write-ahead log: %w", err)
	}
	sp.Arg("lsn", int64(lsn)).End()
	return s.dur.mu.Unlock, nil
}

// applyRecord re-applies one replayed WAL record. Decode failures abort
// recovery (the record passed its CRC, so a decode failure means a format
// bug, not disk corruption). Apply failures are counted and skipped: the
// live system logged the operation before discovering it was invalid, and
// replaying the same failure on the same state is the correct outcome.
func (s *Store) applyRecord(rec wal.Record, opErrors *obs.Counter) error {
	r := wal.NewBodyReader(rec.Body)
	var err error
	switch rec.Kind {
	case recLoad:
		name, xml := r.String(), r.Bytes()
		if r.Err() == nil {
			_, err = s.applyLoad(name, xml)
		}
	case recInsert:
		doc, target, mode, frag := r.Int(), r.Int(), r.String(), r.String()
		if r.Err() == nil {
			var m update.Mode
			if m, err = update.ParseMode(mode); err != nil {
				return fmt.Errorf("wal record lsn=%d: %w", rec.LSN, err)
			}
			_, err = s.manager.InsertXML(doc, target, m, frag)
		}
	case recDelete:
		doc, id := r.Int(), r.Int()
		if r.Err() == nil {
			_, err = s.manager.Delete(doc, id)
		}
	case recSetValue:
		doc, id, value := r.Int(), r.Int(), r.String()
		if r.Err() == nil {
			err = s.manager.SetValue(doc, id, value)
		}
	case recRename:
		doc, id, name := r.Int(), r.Int(), r.String()
		if r.Err() == nil {
			err = s.manager.Rename(doc, id, name)
		}
	case recMove:
		doc, id, target, mode := r.Int(), r.Int(), r.Int(), r.String()
		if r.Err() == nil {
			var m update.Mode
			if m, err = update.ParseMode(mode); err != nil {
				return fmt.Errorf("wal record lsn=%d: %w", rec.LSN, err)
			}
			_, err = s.moveTree(doc, id, target, m)
		}
	case recDrop:
		doc := r.Int()
		if r.Err() == nil {
			err = s.shredder.DropDocument(doc)
		}
	case recExec:
		sql, rowBytes := r.String(), r.Bytes()
		if r.Err() == nil {
			var params sqltypes.Row
			if params, err = sqltypes.DecodeRow(rowBytes); err != nil {
				return fmt.Errorf("wal record lsn=%d: decode params: %w", rec.LSN, err)
			}
			_, err = s.db.Exec(sql, params...)
		}
	default:
		return fmt.Errorf("wal record lsn=%d: unknown kind %d (log written by a newer version?)", rec.LSN, rec.Kind)
	}
	if derr := r.Err(); derr != nil {
		return fmt.Errorf("wal record lsn=%d kind=%d: %w", rec.LSN, rec.Kind, derr)
	}
	if err != nil {
		opErrors.Inc()
	}
	return nil
}

// applyLoad shreds logged XML bytes; shared by the durable Load wrapper and
// replay so both paths allocate ids identically.
func (s *Store) applyLoad(name string, xml []byte) (DocID, error) {
	return s.shredder.Load(name, bytes.NewReader(xml))
}
