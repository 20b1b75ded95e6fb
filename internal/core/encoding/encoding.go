// Package encoding defines the three relational order encodings of the
// paper — Global, Local and Dewey — as concrete schemas over the embedded
// engine, plus the options (gap-based sparse orders, string-vs-binary Dewey
// keys) that the experiments vary.
//
// All encodings shred a document into one node table:
//
//	<nodes>(doc, id, parent, kind, tag, value, <order key>)
//
// where id is a stable surrogate node id (so the public API is
// encoding-agnostic), kind is elem/attr/text, tag is the element tag or
// attribute name, and value is the text or attribute value. The encodings
// differ only in the order key:
//
//	GLOBAL: gorder INT — absolute position in document order.
//	LOCAL:  lorder INT — position among siblings.
//	DEWEY:  path BLOB (or TEXT) — the Dewey path of sibling ordinals.
//
// A shared docs table registers documents. Multiple encodings can be
// installed in one database; their tables are disjoint, which is how the
// benchmark harness compares them on identical data.
package encoding

import (
	"fmt"

	"ordxml/internal/core/dewey"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
)

// Kind selects the order encoding.
type Kind int

// The three encodings.
const (
	Global Kind = iota
	Local
	Dewey
)

// String returns the encoding name.
func (k Kind) String() string {
	switch k {
	case Global:
		return "global"
	case Local:
		return "local"
	case Dewey:
		return "dewey"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind reads an encoding name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "global":
		return Global, nil
	case "local":
		return Local, nil
	case "dewey":
		return Dewey, nil
	default:
		return 0, fmt.Errorf("unknown encoding %q (want global, local or dewey)", s)
	}
}

// Options configure one encoding instance.
type Options struct {
	Kind Kind
	// Gap is the spacing between consecutive order values (sibling ordinals
	// for Local/Dewey, document positions for Global). Gap 1 is the dense
	// encoding; larger gaps let inserts claim unused values and amortize
	// renumbering, as §5 of the paper discusses. Zero means 1.
	Gap uint32
	// DeweyAsText stores Dewey keys as fixed-width padded strings instead of
	// the binary codec — the E8 storage/performance ablation. Only
	// meaningful with Kind == Dewey.
	DeweyAsText bool
}

// EffectiveGap returns the gap with the zero default applied.
func (o Options) EffectiveGap() uint32 {
	if o.Gap == 0 {
		return 1
	}
	return o.Gap
}

// Validate rejects incoherent options.
func (o Options) Validate() error {
	if o.Kind < Global || o.Kind > Dewey {
		return fmt.Errorf("invalid encoding kind %d", o.Kind)
	}
	if o.DeweyAsText && o.Kind != Dewey {
		return fmt.Errorf("DeweyAsText requires the Dewey encoding")
	}
	return nil
}

// DeweyComponent returns c as a Dewey path component, or an error wrapping
// dewey.ErrRange when the stored-key codec cannot hold it.
func (o Options) DeweyComponent(c uint64) (uint32, error) {
	return dewey.Component(c, o.DeweyAsText)
}

// DeweyKey encodes p as a stored Dewey order key: a binary BLOB, or a padded
// TEXT under DeweyAsText. The binary key is appended to buf and aliases it;
// DeweyKey returns the extended buf, so a caller building many keys shares
// one backing array (nil allocates per key).
func (o Options) DeweyKey(buf []byte, p dewey.Path) (sqltypes.Value, []byte) {
	if o.DeweyAsText {
		return sqldb.S(p.PaddedString()), buf
	}
	off := len(buf)
	buf = p.AppendBytes(buf)
	return sqldb.B(buf[off:]), buf
}

// DeweyPath decodes a stored Dewey order key.
func (o Options) DeweyPath(key sqltypes.Value) (dewey.Path, error) {
	if o.DeweyAsText {
		return dewey.ParsePadded(key.Text())
	}
	return dewey.FromBytes(key.Blob())
}

// DeweyUpper returns the exclusive upper bound of the stored keys of p's
// subtree: a key k is p or one of its descendants exactly when
// DeweyKey(p) <= k < DeweyUpper(p).
func (o Options) DeweyUpper(p dewey.Path) (sqltypes.Value, error) {
	if o.DeweyAsText {
		return sqldb.S(p.PaddedPrefixSuccessor()), nil
	}
	succ := p.PrefixSuccessor()
	if succ == nil {
		return sqltypes.Value{}, fmt.Errorf("dewey path %s has no successor", p)
	}
	return sqldb.B(succ), nil
}

// NodesTable returns the node-table name for this encoding instance.
func (o Options) NodesTable() string {
	switch o.Kind {
	case Global:
		return "xg_nodes"
	case Local:
		return "xl_nodes"
	case Dewey:
		if o.DeweyAsText {
			return "xs_nodes"
		}
		return "xd_nodes"
	default:
		panic(fmt.Sprintf("encoding: unknown kind %d", int(o.Kind)))
	}
}

// OrderColumn returns the name of the order-key column.
func (o Options) OrderColumn() string {
	switch o.Kind {
	case Global:
		return "gorder"
	case Local:
		return "lorder"
	case Dewey:
		return "path"
	default:
		panic(fmt.Sprintf("encoding: unknown kind %d", int(o.Kind)))
	}
}

// DocsDDL returns the statements creating the shared docs table.
func DocsDDL() []string {
	return []string{
		`CREATE TABLE docs (doc INT PRIMARY KEY, name TEXT NOT NULL, root INT NOT NULL, nodes INT NOT NULL)`,
	}
}

// DDL returns the statements creating this encoding's node table and its
// indexes. Index design follows the paper's query needs:
//
//   - a unique (doc, <order key>) index for document-order scans — for Dewey
//     this is also the ancestry index (prefix ranges);
//   - a unique (doc, id) index for point lookups by surrogate id;
//   - a (doc, parent, <order key>) index driving child and sibling axes;
//   - a (doc, tag, <order key>) index driving tag lookups in document order.
func (o Options) DDL() []string {
	tbl := o.NodesTable()
	ordCol := o.OrderColumn()
	ordType := "INT"
	if o.Kind == Dewey {
		if o.DeweyAsText {
			ordType = "TEXT"
		} else {
			ordType = "BLOB"
		}
	}
	stmts := []string{
		sqlgen.SQL(`CREATE TABLE %s (
			doc INT NOT NULL,
			id INT NOT NULL,
			parent INT,
			kind TEXT NOT NULL,
			tag TEXT,
			value TEXT,
			%s %s NOT NULL)`, tbl, ordCol, ordType),
		sqlgen.SQL(`CREATE UNIQUE INDEX %s_id ON %s (doc, id)`, tbl, tbl),
	}
	if o.Kind == Local {
		// A local order value is unique only among siblings: the sibling
		// index is the unique one, and there is no document-order index —
		// the defining weakness of the encoding.
		stmts = append(stmts,
			sqlgen.SQL(`CREATE UNIQUE INDEX %s_parent ON %s (doc, parent, %s)`, tbl, tbl, ordCol),
			sqlgen.SQL(`CREATE INDEX %s_tag ON %s (doc, tag)`, tbl, tbl),
		)
	} else {
		stmts = append(stmts,
			sqlgen.SQL(`CREATE UNIQUE INDEX %s_order ON %s (doc, %s)`, tbl, tbl, ordCol),
			sqlgen.SQL(`CREATE INDEX %s_parent ON %s (doc, parent, %s)`, tbl, tbl, ordCol),
			sqlgen.SQL(`CREATE INDEX %s_tag ON %s (doc, tag, %s)`, tbl, tbl, ordCol),
		)
	}
	return stmts
}

// Install creates the docs table (once) and this encoding's tables in db.
// Installing the same encoding twice is an error; installing different
// encodings side by side is supported.
func Install(db *sqldb.DB, o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if db.Catalog().Table("docs") == nil {
		for _, stmt := range DocsDDL() {
			if _, err := db.Exec(stmt); err != nil {
				return fmt.Errorf("install docs schema: %w", err)
			}
		}
	}
	for _, stmt := range o.DDL() {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("install %s schema: %w", o.Kind, err)
		}
	}
	return nil
}

// Installed reports whether this encoding's node table exists in db.
func Installed(db *sqldb.DB, o Options) bool {
	return db.Catalog().Table(o.NodesTable()) != nil
}
