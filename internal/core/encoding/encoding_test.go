package encoding

import (
	"errors"
	"strings"
	"testing"

	"ordxml/internal/core/dewey"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
)

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Global, Local, Dewey} {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("kind %v round trip: %v, %v", k, back, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("bad kind parsed")
	}
}

func TestValidate(t *testing.T) {
	good := []Options{
		{Kind: Global},
		{Kind: Local, Gap: 100},
		{Kind: Dewey, DeweyAsText: true},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", o, err)
		}
	}
	bad := []Options{
		{Kind: Kind(7)},
		{Kind: Global, DeweyAsText: true},
		{Kind: Local, DeweyAsText: true},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) passed", o)
		}
	}
}

func TestEffectiveGap(t *testing.T) {
	if (Options{}).EffectiveGap() != 1 {
		t.Error("zero gap should default to 1")
	}
	if (Options{Gap: 9}).EffectiveGap() != 9 {
		t.Error("explicit gap lost")
	}
}

func TestTableAndColumnNames(t *testing.T) {
	cases := []struct {
		o   Options
		tbl string
		col string
	}{
		{Options{Kind: Global}, "xg_nodes", "gorder"},
		{Options{Kind: Local}, "xl_nodes", "lorder"},
		{Options{Kind: Dewey}, "xd_nodes", "path"},
		{Options{Kind: Dewey, DeweyAsText: true}, "xs_nodes", "path"},
	}
	for _, c := range cases {
		if c.o.NodesTable() != c.tbl || c.o.OrderColumn() != c.col {
			t.Errorf("%+v: %s/%s", c.o, c.o.NodesTable(), c.o.OrderColumn())
		}
	}
}

func TestDDLShapes(t *testing.T) {
	// Local must not have a document-order unique index; the others must.
	localDDL := strings.Join(Options{Kind: Local}.DDL(), "\n")
	if strings.Contains(localDDL, "xl_nodes_order") {
		t.Error("local has a document-order index")
	}
	if !strings.Contains(localDDL, "UNIQUE INDEX xl_nodes_parent") {
		t.Error("local sibling index not unique")
	}
	globalDDL := strings.Join(Options{Kind: Global}.DDL(), "\n")
	if !strings.Contains(globalDDL, "UNIQUE INDEX xg_nodes_order") {
		t.Error("global lacks unique order index")
	}
	deweyDDL := strings.Join(Options{Kind: Dewey}.DDL(), "\n")
	if !strings.Contains(deweyDDL, "path BLOB NOT NULL") {
		t.Error("dewey path not BLOB")
	}
	textDDL := strings.Join(Options{Kind: Dewey, DeweyAsText: true}.DDL(), "\n")
	if !strings.Contains(textDDL, "path TEXT NOT NULL") {
		t.Error("text dewey path not TEXT")
	}
}

func TestInstall(t *testing.T) {
	db := sqldb.Open()
	if err := Install(db, Options{Kind: Global}); err != nil {
		t.Fatal(err)
	}
	if !Installed(db, Options{Kind: Global}) {
		t.Error("Installed = false after Install")
	}
	// Side-by-side encodings share the docs table.
	if err := Install(db, Options{Kind: Dewey}); err != nil {
		t.Fatal(err)
	}
	if db.Catalog().Table("docs") == nil {
		t.Error("docs table missing")
	}
	// Double install of the same encoding fails.
	if err := Install(db, Options{Kind: Global}); err == nil {
		t.Error("double install succeeded")
	}
	// Invalid options rejected.
	if err := Install(db, Options{Kind: Kind(9)}); err == nil {
		t.Error("invalid options installed")
	}
	if Installed(db, Options{Kind: Local}) {
		t.Error("local reported installed")
	}
}

// TestDeweyKeyCodec: under both stored-key codecs a key decodes back to its
// path, a shared buffer leaves earlier keys intact, and the subtree bound
// holds the path and its descendants but not its next sibling.
func TestDeweyKeyCodec(t *testing.T) {
	for _, o := range []Options{{Kind: Dewey}, {Kind: Dewey, DeweyAsText: true}} {
		p := dewey.Path{1, 200, 70_000}
		var buf []byte
		key, buf := o.DeweyKey(buf, p)
		child, _ := o.DeweyKey(buf, p.Child(3))
		next, _ := o.DeweyKey(nil, p.WithLast(70_001))
		if back, err := o.DeweyPath(key); err != nil || dewey.Compare(back, p) != 0 {
			t.Errorf("text=%v: %s decodes to %s, %v", o.DeweyAsText, p, back, err)
		}
		if back, err := o.DeweyPath(child); err != nil || dewey.Compare(back, p.Child(3)) != 0 {
			t.Errorf("text=%v: the second key in one buffer decodes to %s, %v", o.DeweyAsText, back, err)
		}
		high, err := o.DeweyUpper(p)
		if err != nil {
			t.Fatal(err)
		}
		if sqltypes.Compare(key, child) >= 0 || sqltypes.Compare(child, high) >= 0 || sqltypes.Compare(high, next) > 0 {
			t.Errorf("text=%v: want %v < %v < %v <= %v", o.DeweyAsText, key, child, high, next)
		}
		if _, err := o.DeweyComponent(0); !errors.Is(err, dewey.ErrRange) {
			t.Errorf("text=%v: component 0: %v", o.DeweyAsText, err)
		}
	}
}
