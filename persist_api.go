package ordxml

import (
	"fmt"
	"strconv"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/publish"
	"ordxml/internal/core/shred"
	"ordxml/internal/core/translate"
	"ordxml/internal/core/update"
	"ordxml/internal/sqldb"
)

// This file builds a Store over an engine database: the store's encoding
// options live in a store_meta relation, so a checkpointed store directory
// is self-describing.

// installMeta records the store's options inside the database so a
// checkpoint is self-describing.
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
		return o, fmt.Errorf("database has no store_meta table (not an ordxml store?)")
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
		return o, fmt.Errorf("store meta: %w", err)
	}
	gap, err := strconv.ParseUint(vals["gap"], 10, 32)
	if err != nil {
		return o, fmt.Errorf("store meta gap: %w", err)
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

// restoredStore builds the component stack over a database opened from a
// checkpoint manifest; the store's options are the ones recorded in its
// store_meta relation.
func restoredStore(db *sqldb.DB) (*Store, error) {
	iopts, err := readMeta(db)
	if err != nil {
		return nil, err
	}
	if !encoding.Installed(db, iopts) {
		return nil, fmt.Errorf("manifest lacks the %s node table", iopts.Kind)
	}
	return newStoreOn(db, iopts)
}
