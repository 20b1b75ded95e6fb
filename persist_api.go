package ordxml

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/publish"
	"ordxml/internal/core/shred"
	"ordxml/internal/core/translate"
	"ordxml/internal/core/update"
	"ordxml/internal/sqldb"
)

// This file implements snapshot persistence for stores: Save streams the
// entire database (documents, schemas, configuration) and OpenSnapshot
// restores it, including the store's encoding options, which are kept in a
// store_meta relation.

// installMeta records the store's options inside the database so a snapshot
// is self-describing.
func installMeta(db *sqldb.DB, o encoding.Options) error {
	if db.Catalog().Table("store_meta") != nil {
		return nil
	}
	if _, err := db.Exec(`CREATE TABLE store_meta (k TEXT PRIMARY KEY, v TEXT NOT NULL)`); err != nil {
		return err
	}
	rows := [][2]string{
		{"encoding", o.Kind.String()},
		{"gap", strconv.FormatUint(uint64(o.EffectiveGap()), 10)},
		{"dewey_text", strconv.FormatBool(o.DeweyAsText)},
		{"format", "1"},
	}
	for _, kv := range rows {
		if _, err := db.Exec(`INSERT INTO store_meta VALUES (?, ?)`,
			sqldb.S(kv[0]), sqldb.S(kv[1])); err != nil {
			return err
		}
	}
	return nil
}

func readMeta(db *sqldb.DB) (encoding.Options, error) {
	var o encoding.Options
	if db.Catalog().Table("store_meta") == nil {
		return o, fmt.Errorf("snapshot has no store_meta table (not an ordxml store?)")
	}
	res, err := db.Query(`SELECT k, v FROM store_meta`)
	if err != nil {
		return o, err
	}
	vals := map[string]string{}
	for _, r := range res.Rows {
		vals[r[0].Text()] = r[1].Text()
	}
	kind, err := encoding.ParseKind(vals["encoding"])
	if err != nil {
		return o, fmt.Errorf("snapshot meta: %w", err)
	}
	gap, err := strconv.ParseUint(vals["gap"], 10, 32)
	if err != nil {
		return o, fmt.Errorf("snapshot meta gap: %w", err)
	}
	o = encoding.Options{Kind: kind, Gap: uint32(gap), DeweyAsText: vals["dewey_text"] == "true"}
	return o, o.Validate()
}

// newStoreOn builds the component stack over an existing database.
func newStoreOn(db *sqldb.DB, iopts encoding.Options) (*Store, error) {
	s := &Store{db: db, opts: iopts}
	var err error
	if s.shredder, err = shred.New(db, iopts); err != nil {
		return nil, err
	}
	if s.publisher, err = publish.New(db, iopts); err != nil {
		return nil, err
	}
	if s.evaluator, err = translate.New(db, iopts); err != nil {
		return nil, err
	}
	if s.manager, err = update.New(db, iopts); err != nil {
		return nil, err
	}
	db.Registry().RegisterFunc("store.degraded", func() int64 {
		if s.gov.degraded.Load() {
			return 1
		}
		return 0
	})
	return s, nil
}

// Save streams a snapshot of the whole store (documents, indexes,
// configuration) to w. The snapshot is consistent: it takes the engine's
// read lock for its duration.
func (s *Store) Save(w io.Writer) error {
	return s.db.Dump(w)
}

// SaveFile writes a snapshot to path, replacing any existing file. The
// replacement is atomic (see installFile): a crash mid-save leaves either
// the old complete snapshot or the new one — never a partial file.
func (s *Store) SaveFile(path string) error {
	if err := installFile(path, s.Save); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	return nil
}

// OpenSnapshot restores a store from a snapshot produced by Save. The
// encoding options travel with the snapshot. Truncated or corrupt snapshots
// are rejected: the format carries a checksum trailer that Load verifies.
func OpenSnapshot(r io.Reader) (*Store, error) {
	return openSnapshotOn(r, sqldb.Open())
}

// openSnapshotOn loads a snapshot into the empty database db and builds the
// store over it.
func openSnapshotOn(r io.Reader, db *sqldb.DB) (*Store, error) {
	if err := sqldb.Load(r, db); err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	return restoredStore(db, "snapshot")
}

// restoredStore builds the component stack over a database restored from a
// snapshot or a checkpoint manifest (what names which, for errors); the
// store's options are the ones recorded in its store_meta relation.
func restoredStore(db *sqldb.DB, what string) (*Store, error) {
	iopts, err := readMeta(db)
	if err != nil {
		return nil, err
	}
	if !encoding.Installed(db, iopts) {
		return nil, fmt.Errorf("%s lacks the %s node table", what, iopts.Kind)
	}
	return newStoreOn(db, iopts)
}

// OpenFile restores a store from a snapshot file.
func OpenFile(path string) (*Store, error) {
	return openSnapshotFile(path, sqldb.Open())
}

// openSnapshotFile loads the snapshot file at path into the empty database
// db and builds the store over it.
func openSnapshotFile(path string, db *sqldb.DB) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return openSnapshotOn(f, db)
}
