package sqldb

import (
	"runtime"
	"strings"
	"testing"

	"ordxml/internal/sqldb/sqltypes"
)

// TestShiftUpdateBytesPerRow bounds the bytes an UPDATE allocates per row it
// renumbers, on a table shaped like a node table: three indexes, two of them
// over the shifted column, and text columns. A statement keeps every matched
// row until it ends, so what it allocates per row decides how often a long
// renumbering makes the collector run. Matched rows and undo records kept
// as decoded values, each slice grown by append, cost about 930 bytes a row;
// row-encoded and grown by doubling, about 520.
func TestShiftUpdateBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation differs under the race detector")
	}
	const (
		rows      = 4000
		maxPerRow = 640
	)
	for _, paged := range []bool{false, true} {
		db := Open()
		if paged {
			db = OpenPooled(newTestPool(t, 1024))
		}
		mustExec(t, db, `CREATE TABLE n (doc INT NOT NULL, id INT NOT NULL, ord INT NOT NULL, tag TEXT, v TEXT)`)
		mustExec(t, db, `CREATE UNIQUE INDEX n_id ON n (doc, id)`)
		mustExec(t, db, `CREATE UNIQUE INDEX n_ord ON n (doc, ord)`)
		mustExec(t, db, `CREATE INDEX n_tag ON n (doc, tag, ord)`)
		tags := []string{"item", "name", "description", "keyword"}
		for i := 0; i < rows; i++ {
			mustExec(t, db, `INSERT INTO n VALUES (1, ?, ?, ?, ?)`,
				I(int64(i)), I(int64(i*4)), sqltypes.NewText(tags[i%len(tags)]), sqltypes.NewText(strings.Repeat("x", i%40)))
		}
		shift := func() {
			mustExec(t, db, `UPDATE n SET ord = ord + ? WHERE doc = 1 AND ord >= ?`, I(4), I(0))
		}
		shift() // the statement's plan is cached from here on
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const statements = 5
		for i := 0; i < statements; i++ {
			shift()
		}
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / (statements * rows)
		if perRow > maxPerRow {
			t.Errorf("paged=%v: %.0f bytes allocated per renumbered row, want <= %d", paged, perRow, maxPerRow)
		}
		if probs := db.CheckIntegrity(); len(probs) > 0 {
			t.Fatalf("paged=%v: integrity: %v", paged, probs)
		}
	}
}
