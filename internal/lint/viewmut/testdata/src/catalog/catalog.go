// Package catalog is a miniature stand-in for the engine's catalog: the
// viewmut analyzer seeds its frozen set on a type named View in a package
// named catalog, chases it to TableData and the Snapshot publication types,
// and stops at the Table boundary (shared with the writer side).
package catalog

type Table struct {
	Name string
	Rows int
}

type Snapshot struct {
	rows []int
}

type TableData struct {
	t     *Table
	heap  *Snapshot
	trees map[int]int
}

type View struct {
	version uint64
	tables  map[string]*Table
	data    map[*Table]*TableData
}

// BuildView constructs a fresh view: in the builder cone by return type, so
// its writes to View fields are construction, not mutation.
func BuildView(version uint64, ts []*Table) *View {
	v := &View{version: version, tables: map[string]*Table{}, data: map[*Table]*TableData{}}
	for _, t := range ts {
		v.tables[t.Name] = t
		v.data[t] = snapshotData(t)
	}
	return v
}

// snapshotData returns a frozen type: in the cone directly.
func snapshotData(t *Table) *TableData {
	td := &TableData{t: t, trees: map[int]int{}}
	td.heap = newSnapshot(t)
	fill(td)
	return td
}

func newSnapshot(t *Table) *Snapshot {
	s := &Snapshot{}
	s.rows = append(s.rows, t.Rows)
	return s
}

// fill returns nothing frozen but is called only from the cone: the caller
// fixpoint must admit it.
func fill(td *TableData) {
	td.trees[0] = 1
}

// Refresh mutates a published view in place — the contract violation.
func Refresh(v *View, t *Table) {
	v.version++          // want `mutation of published snapshot: write to catalog.View.version outside the view builders`
	v.tables[t.Name] = t // want `mutation of published snapshot: write to catalog.View.tables outside the view builders`
	v.data[t].heap = nil // want `mutation of published snapshot: write to catalog.TableData.heap outside the view builders`
}

// evict mutates a published TableData through a method: its only caller is
// Refresh (not in the cone), so the fixpoint must keep it out too.
func (td *TableData) evict() {
	td.trees[1] = 0 // want `mutation of published snapshot: write to catalog.TableData.trees outside the view builders`
}

// Compact drives evict from outside the cone.
func Compact(v *View, t *Table) {
	v.data[t].evict()
}

// Bump writes through the Table boundary: the writer side owns *Table under
// its own lock, so this is not a view mutation.
func Bump(t *Table) {
	t.Rows++
}
