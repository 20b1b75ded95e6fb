package ordxml

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/update"
	"ordxml/internal/failpoint"
	"ordxml/internal/govern"
	"ordxml/internal/obs"
	olog "ordxml/internal/obs/log"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/pagefile"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/wal"
)

// This file implements the durability subsystem: a durable store pairs the
// engine with a write-ahead log of logical mutations and an atomically-
// replaced checkpoint, in one directory. Two storage tiers share the same
// WAL protocol:
//
// All-RAM (default):
//
//	<dir>/snapshot.db   full-database snapshot from the last Checkpoint
//	<dir>/wal.log       logical mutations since that checkpoint
//
// Buffer-pooled (Options.BufferPoolFrames > 0): storage pages through a
// fixed-capacity pool over an on-disk page file, so the dataset may exceed
// RAM and checkpoints are incremental — only pages dirtied since the last
// checkpoint are written, plus a small manifest of page references:
//
//	<dir>/pages.db      8 KiB-page file holding every heap and index page
//	<dir>/meta.db       checkpoint manifest (schema + page references)
//	<dir>/wal.log       logical mutations since that checkpoint
//
// Every mutating Store entry point follows append-then-apply: the operation
// is encoded as a WAL record and fsynced *before* it touches the engine, so
// an operation that returned success is durable. The pool enforces
// WAL-before-data independently: a dirty page cannot reach pages.db before
// the log is durable through the page's recorded LSN. Recovery = load the
// last checkpoint, replay every WAL record past the checkpoint's LSN
// (recorded in store_meta), truncate a torn tail, and finish with a deep
// integrity check. Replay is deterministic because every record captures the
// operation's logical inputs (names, node ids, XML text) and the engine's id
// and order-key allocation is a pure function of store state.
//
// Checkpoint shrinks the log. All-RAM: snapshot to a temp file, fsync,
// rename over snapshot.db, fsync the directory, rotate the WAL. Pooled:
// serialize changed index nodes to fresh pages (shadow paging — checkpoint-
// referenced pages are never overwritten), flush the pool's dirty frames,
// sync pages.db, atomically install the manifest, commit the pool's
// allocator, rotate the WAL. A crash between install and rotation is benign
// in both tiers — replay skips records at or below the checkpoint's LSN.

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

// Checkpoint failpoints (the WAL package registers its own for the
// append/sync/rotate/replay paths; the buffer pool registers bufpool.flush
// and bufpool.evict).
var (
	fpCkptBeforeSnapshot = failpoint.New("checkpoint.before-snapshot")
	fpCkptBeforeRename   = failpoint.New("checkpoint.before-rename")
	fpCkptAfterRename    = failpoint.New("checkpoint.after-rename")

	fpPagedBeforeFlush = failpoint.New("checkpoint.paged.before-flush")
	fpPagedBeforeMeta  = failpoint.New("checkpoint.paged.before-meta")
	fpPagedAfterMeta   = failpoint.New("checkpoint.paged.after-meta")
)

// Durable-store file names inside the store directory.
const (
	snapshotFile = "snapshot.db"
	walFile      = "wal.log"
	pagesFile    = "pages.db"
	metaFile     = "meta.db"
)

// DefaultPoolFrames is the buffer-pool capacity OpenDurable uses when a
// paged store is reopened without an explicit BufferPoolFrames (8 MiB of
// 8 KiB pages).
const DefaultPoolFrames = 1024

// durState is the durable half of a Store; nil for memory-only stores.
type durState struct {
	dir string
	log *wal.Log
	// mu serializes logged mutations and checkpoints so the WAL's record
	// order always equals the apply order (replay correctness depends on it).
	mu sync.Mutex

	// pool and pf are the buffer-pooled tier; nil for all-RAM stores.
	pool     *bufpool.Pool
	pf       *pagefile.File
	metaPath string

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

// Pooled reports whether the store's storage pages through a buffer pool.
func (s *Store) Pooled() bool { return s.dur != nil && s.dur.pool != nil }

// OpenDurable opens (or creates) a durable store in dir. When dir holds an
// earlier store, recovery runs: the last checkpoint is loaded (full snapshot
// or paged manifest, whichever tier the store was created with), the
// write-ahead log is replayed past it (a torn final record is truncated
// away), and the recovered store must pass the deep integrity check; the
// encoding options in opts are ignored in that case — the checkpoint's own
// win. When dir is fresh, an empty store with opts is created; a positive
// opts.BufferPoolFrames selects the buffer-pooled tier (see Options).
//
// Close the store to release the log and page files; call Checkpoint
// periodically to bound the log and recovery time.
func OpenDurable(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open durable store: %w", err)
	}
	pagesPath := filepath.Join(dir, pagesFile)
	metaPath := filepath.Join(dir, metaFile)
	snapPath := filepath.Join(dir, snapshotFile)

	var (
		s       *Store
		snapLSN uint64
		pool    *bufpool.Pool
		pf      *pagefile.File
	)
	fail := func(err error) (*Store, error) {
		if pf != nil {
			pf.Close()
		}
		return nil, err
	}
	switch {
	case fileExists(pagesPath):
		// Paged store. The page file existing with no manifest means a crash
		// before the first checkpoint finished: nothing in pages.db is
		// durable yet, so recovery is a fresh store plus a full WAL replay.
		var err error
		if pf, err = pagefile.Open(pagesPath); err != nil {
			return nil, fmt.Errorf("open durable store %s: %w", dir, err)
		}
		pool = bufpool.New(pf, poolFrames(opts))
		if fileExists(metaPath) {
			if s, err = openPagedManifest(metaPath, pool); err != nil {
				return fail(fmt.Errorf("open durable store %s: %w", dir, err))
			}
			if snapLSN, err = readWALLSN(s.db); err != nil {
				return fail(fmt.Errorf("open durable store %s: %w", dir, err))
			}
		} else if s, err = openPagedFresh(pool, opts); err != nil {
			return fail(err)
		}
	case fileExists(snapPath):
		// Legacy all-RAM store with a full snapshot.
		var err error
		if s, err = OpenFile(snapPath); err != nil {
			return nil, fmt.Errorf("open durable store %s: %w", dir, err)
		}
		if snapLSN, err = readWALLSN(s.db); err != nil {
			return nil, fmt.Errorf("open durable store %s: %w", dir, err)
		}
	case opts.BufferPoolFrames > 0:
		var err error
		if pf, err = pagefile.Create(pagesPath); err != nil {
			return nil, fmt.Errorf("open durable store %s: %w", dir, err)
		}
		pool = bufpool.New(pf, poolFrames(opts))
		if s, err = openPagedFresh(pool, opts); err != nil {
			return fail(err)
		}
	default:
		var err error
		if s, err = Open(opts); err != nil {
			return nil, err
		}
	}

	lg, err := wal.Open(filepath.Join(dir, walFile), s.db.Registry())
	if err != nil {
		return fail(err)
	}
	opErrors := s.db.Registry().Counter("wal.replay.op_errors")
	logger := s.db.Registry().Log()
	replayStart := time.Now()
	var replayed int64
	if err := lg.Replay(snapLSN, func(rec wal.Record) error {
		replayed++
		return s.applyRecord(rec, opErrors)
	}); err != nil {
		lg.Close()
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
	if pool != nil {
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
	}

	// Recovery ends with the deep integrity check: a store rebuilt from
	// checkpoint + log must be indistinguishable from one that never crashed.
	problems, err := s.CheckIntegrity()
	if err != nil {
		lg.Close()
		return fail(fmt.Errorf("post-recovery integrity check: %w", err))
	}
	if len(problems) > 0 {
		lg.Close()
		return fail(fmt.Errorf("post-recovery integrity check found %d violation(s): %s",
			len(problems), strings.Join(problems, "; ")))
	}

	reg := s.db.Registry()
	s.dur = &durState{
		dir:         dir,
		log:         lg,
		pool:        pool,
		pf:          pf,
		metaPath:    metaPath,
		checkpoints: reg.Counter("wal.checkpoints"),
		ckptLat:     reg.Histogram("wal.checkpoint.latency"),
		opErrors:    opErrors,
	}
	if pool != nil {
		// A failed page write (flush or checkpoint) leaves disk state behind
		// the pool's idea of it; the store degrades to read-only — snapshot
		// reads still serve from memory, mutations are refused until reopen.
		pool.OnWriteError = func(err error) {
			s.enterDegraded(fmt.Sprintf("page write failed: %v", err))
		}
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

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// poolFrames resolves the pool capacity for a paged store.
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
func openPagedManifest(path string, pool *bufpool.Pool) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := sqldb.LoadPaged(f, pool)
	if err != nil {
		return nil, err
	}
	iopts, err := readMeta(db)
	if err != nil {
		return nil, err
	}
	if !encoding.Installed(db, iopts) {
		return nil, fmt.Errorf("manifest lacks the %s node table", iopts.Kind)
	}
	return newStoreOn(db, iopts)
}

// Close syncs and releases the write-ahead log and, for pooled stores, the
// page file. Memory-only stores have nothing to release; Close is a no-op
// for them.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	err := s.dur.log.Close()
	if s.dur.pf != nil {
		if cerr := s.dur.pf.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Checkpoint makes the store's current state durable without the log and
// rotates the write-ahead log, bounding recovery to the log written after
// this call. All-RAM stores write a full atomic snapshot; pooled stores
// checkpoint incrementally — only pages dirtied since the last checkpoint
// are flushed, followed by a small manifest install. Either way the
// checkpoint records the log's high-water LSN, so replay after a crash —
// even one landing between the checkpoint install and the log rotation —
// never re-applies an operation the checkpoint already contains.
//ordlint:ignore walfirst checkpoint metadata records the WAL position itself; logging it would be circular (see CheckpointCtx)
func (s *Store) Checkpoint() error { return s.CheckpointCtx(context.Background()) }

// CheckpointCtx is Checkpoint with a caller context: with the request tracer
// enabled the checkpoint records a span tree (manifest or snapshot write,
// pool flush, install, log rotation), and completion is structured-logged.
func (s *Store) CheckpointCtx(ctx context.Context) error {
	if s.dur == nil {
		return fmt.Errorf("store is not durable (open it with OpenDurable)")
	}
	ctx, root := s.rootSpan(ctx, "checkpoint")
	defer root.End()
	sp := obs.FromContext(ctx)
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	start := time.Now()
	lsn := s.dur.log.LastLSN()
	// The wal_lsn row is checkpoint metadata, deliberately outside the
	// WAL-first contract: it records how much of the log the checkpoint
	// already contains, so appending it to the log it describes would be
	// circular, and replay restores it from the snapshot instead.
	//ordlint:ignore walfirst checkpoint metadata write records the WAL position; logging it to the WAL it describes would be circular
	if err := s.writeWALLSN(lsn); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var err error
	if s.dur.pool != nil {
		err = s.checkpointPaged(sp)
	} else {
		err = s.checkpointSnapshot(sp)
	}
	logger := s.db.Registry().Log()
	if err != nil {
		logger.Error("checkpoint failed", olog.Str("dir", s.dur.dir), olog.Err(err))
		return err
	}
	rsp := sp.StartChild("wal.rotate")
	err = s.dur.log.Rotate()
	rsp.End()
	if err != nil {
		logger.Error("checkpoint failed", olog.Str("dir", s.dur.dir), olog.Err(err))
		return fmt.Errorf("checkpoint: rotate log: %w", err)
	}
	s.dur.checkpoints.Inc()
	s.dur.ckptLat.Observe(time.Since(start))
	s.dur.lastCkpt.Store(time.Now().UnixNano())
	tier := "snapshot"
	if s.dur.pool != nil {
		tier = "paged"
	}
	logger.Info("checkpoint complete",
		olog.Str("dir", s.dur.dir),
		olog.Str("tier", tier),
		olog.Int("lsn", int64(lsn)),
		olog.Dur("elapsed", time.Since(start)))
	sp.Arg("lsn", int64(lsn))
	return nil
}

// checkpointSnapshot is the all-RAM tier's checkpoint body: full snapshot to
// a temp file, fsync, atomic rename over snapshot.db.
func (s *Store) checkpointSnapshot(sp *obs.ActiveSpan) error {
	if err := fpCkptBeforeSnapshot.Hit(); err != nil {
		return err
	}
	snapPath := filepath.Join(s.dur.dir, snapshotFile)
	wsp := sp.StartChild("checkpoint.snapshot")
	tmp, err := writeSnapshotTemp(s, snapPath)
	wsp.End()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fpCkptBeforeRename.Hit(); err != nil {
		os.Remove(tmp)
		return err
	}
	isp := sp.StartChild("checkpoint.install")
	defer isp.End()
	if err := os.Rename(tmp, snapPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := wal.SyncDir(s.dur.dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return fpCkptAfterRename.Hit()
}

// checkpointPaged is the pooled tier's incremental checkpoint body:
//
//  1. serialize changed index nodes to fresh pages and build the manifest
//     (shadow paging — pages the previous checkpoint references are never
//     overwritten, so a crash anywhere below leaves it intact);
//  2. flush every dirty frame and sync the page file;
//  3. install the manifest atomically (temp + fsync + rename + dir sync);
//  4. commit the pool's allocator: pages the old checkpoint no longer
//     references become reusable.
func (s *Store) checkpointPaged(sp *obs.ActiveSpan) error {
	if err := fpPagedBeforeFlush.Hit(); err != nil {
		return err
	}
	msp := sp.StartChild("checkpoint.manifest")
	var manifest bytes.Buffer
	err := s.db.DumpPaged(&manifest)
	msp.End()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	fsp := sp.StartChild("bufpool.flush_all")
	if err := s.dur.pool.FlushAll(); err != nil {
		fsp.End()
		return fmt.Errorf("checkpoint: flush pool: %w", err)
	}
	err = s.dur.pf.Sync()
	fsp.End()
	if err != nil {
		return fmt.Errorf("checkpoint: sync page file: %w", err)
	}
	if err := fpPagedBeforeMeta.Hit(); err != nil {
		return err
	}
	isp := sp.StartChild("checkpoint.install")
	defer isp.End()
	tmp, err := writeFileTemp(s.dur.metaPath, manifest.Bytes())
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.dur.metaPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := wal.SyncDir(s.dur.dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fpPagedAfterMeta.Hit(); err != nil {
		return err
	}
	s.dur.pool.CommitCheckpoint()
	return nil
}

// writeFileTemp writes data to a synced temp file next to path and returns
// the temp name, ready to rename.
func writeFileTemp(path string, data []byte) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	fail := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// writeSnapshotTemp writes a snapshot to a temp file next to path and
// returns the temp name; the file is synced and closed, ready to rename.
func writeSnapshotTemp(s *Store, path string) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	fail := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := s.Save(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// writeWALLSN upserts the log high-water mark into store_meta so snapshots
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

// readWALLSN reads the snapshot's log high-water mark (0 when the snapshot
// predates any checkpoint or the key is absent).
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
		return 0, fmt.Errorf("snapshot meta wal_lsn: %w", err)
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
