package sqldb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// Snapshot persistence: Dump streams the whole database — schemas, rows
// and index definitions — in a compact binary format; Load reads it back,
// rebuilding indexes. The format is a snapshot, not a log: it captures a
// point-in-time state (the WAL in internal/wal logs the mutations between
// snapshots; see ordxml.OpenDurable).
//
// Layout: magic, version, table count, then per table: name, columns,
// row count, row payloads (sqltypes row codec), then per table its index
// definitions. All strings and blobs are uvarint-length-prefixed. Version 2
// appends a checksum trailer — trailer magic plus the CRC32 (IEEE) of every
// body byte before it — so Load detects truncated or corrupt snapshots
// instead of misreading them. Version-1 snapshots (no trailer) still load.

const (
	persistMagic   = "ordxmlDB"
	persistVersion = 2
	trailerMagic   = "ordxmlCK"
)

// WriteTo serializes the database. It takes the engine's read lock, so the
// snapshot is consistent with respect to concurrent statements.
func (db *DB) Dump(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sum := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	out := &perr{w: bw}

	out.bytes([]byte(persistMagic))
	out.uvarint(persistVersion)
	names := db.cat.TableNames()
	out.uvarint(uint64(len(names)))
	for _, name := range names {
		t := db.cat.Table(name)
		out.str(name)
		out.uvarint(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			out.str(c.Name)
			out.uvarint(uint64(c.Type))
			out.bool(c.NotNull)
		}
		out.uvarint(uint64(t.RowCount()))
		t.Heap.Scan(func(_ heap.RID, data []byte) bool {
			out.blob(data)
			return out.err == nil
		})
		out.uvarint(uint64(len(t.Indexes)))
		for _, ix := range t.Indexes {
			out.str(ix.Name)
			cols := ix.ColumnNames()
			out.uvarint(uint64(len(cols)))
			for _, c := range cols {
				out.str(c)
			}
			out.bool(ix.Unique)
		}
	}
	if out.err != nil {
		return out.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailer: written past the hashed body, directly to w.
	var tr [len(trailerMagic) + 4]byte
	copy(tr[:], trailerMagic)
	binary.LittleEndian.PutUint32(tr[len(trailerMagic):], sum.Sum32())
	_, err := w.Write(tr[:])
	return err
}

// Load reads a snapshot produced by Dump into db, which must be empty and
// not yet shared (Open for an in-memory database, OpenPooled to import the
// snapshot into paged storage). For version-2 snapshots the checksum trailer
// is verified: a truncated or bit-flipped snapshot fails with a descriptive
// error instead of loading a silently wrong database; db is then garbage.
func Load(r io.Reader, db *DB) error {
	br := bufio.NewReader(r)
	in := &pread{r: br, sum: crc32.NewIEEE()}

	magic := in.bytes(len(persistMagic))
	if in.err == nil && string(magic) != persistMagic {
		return fmt.Errorf("not an ordxml database snapshot")
	}
	version := in.uvarint()
	if in.err == nil && version != 1 && version != persistVersion {
		return fmt.Errorf("unsupported snapshot version %d (this build reads versions 1 and %d)",
			version, persistVersion)
	}
	nTables := in.uvarint()
	type pendingIndex struct {
		name, table string
		cols        []string
		unique      bool
	}
	var indexes []pendingIndex
	for ti := uint64(0); ti < nTables && in.err == nil; ti++ {
		name := in.str()
		nCols := in.uvarint()
		cols := make([]catalog.Column, nCols)
		for ci := range cols {
			cols[ci] = catalog.Column{
				Name:    in.str(),
				Type:    sqltypes.Type(in.uvarint()),
				NotNull: in.bool(),
			}
		}
		if in.err != nil {
			break
		}
		t, err := db.cat.CreateTable(name, cols)
		if err != nil {
			return err
		}
		// Rows go through the batch fast path (heap append, no per-row
		// parse/plan or index churn — indexes are rebuilt bottom-up below),
		// chunked to bound peak memory.
		nRows := in.uvarint()
		const loadChunk = 4096
		batch := make([]sqltypes.Row, 0, loadChunk)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			if _, err := t.BulkInsert(batch); err != nil {
				return fmt.Errorf("table %s: %w", name, err)
			}
			batch = batch[:0]
			return nil
		}
		for ri := uint64(0); ri < nRows && in.err == nil; ri++ {
			data := in.blobCopy()
			if in.err != nil {
				break
			}
			row, err := sqltypes.DecodeRow(data)
			if err != nil {
				return fmt.Errorf("table %s row %d: %w", name, ri, err)
			}
			batch = append(batch, row)
			if len(batch) == loadChunk {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
		nIdx := in.uvarint()
		for ii := uint64(0); ii < nIdx && in.err == nil; ii++ {
			pi := pendingIndex{name: in.str(), table: name}
			nc := in.uvarint()
			for c := uint64(0); c < nc; c++ {
				pi.cols = append(pi.cols, in.str())
			}
			pi.unique = in.bool()
			indexes = append(indexes, pi)
		}
	}
	if in.err != nil {
		return fmt.Errorf("snapshot read: %w", in.err)
	}
	if version >= 2 {
		got := in.sum.Sum32() // body CRC; the trailer itself is not hashed
		tr := in.bytes(len(trailerMagic) + 4)
		if in.err != nil {
			return fmt.Errorf("snapshot is truncated (missing checksum trailer): %w", in.err)
		}
		if string(tr[:len(trailerMagic)]) != trailerMagic {
			return fmt.Errorf("snapshot is truncated or corrupt (bad checksum trailer magic %q)",
				tr[:len(trailerMagic)])
		}
		if want := binary.LittleEndian.Uint32(tr[len(trailerMagic):]); want != got {
			return fmt.Errorf("snapshot checksum mismatch (corrupt snapshot: computed %08x, stored %08x)",
				got, want)
		}
	}
	for _, pi := range indexes {
		if _, err := db.cat.CreateIndex(pi.name, pi.table, pi.cols, pi.unique); err != nil {
			return fmt.Errorf("rebuild index %s: %w", pi.name, err)
		}
	}
	db.publish()
	return nil
}

// perr is a sticky-error binary writer.
type perr struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (p *perr) bytes(b []byte) {
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}

func (p *perr) uvarint(v uint64) {
	n := binary.PutUvarint(p.buf[:], v)
	p.bytes(p.buf[:n])
}

func (p *perr) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	p.bytes([]byte{b})
}

func (p *perr) blob(b []byte) {
	p.uvarint(uint64(len(b)))
	p.bytes(b)
}

func (p *perr) str(s string) { p.blob([]byte(s)) }

// pread is the matching sticky-error reader. It maintains a running CRC of
// the bytes it has consumed so Load can verify the trailer; uvarints are
// hashed by re-encoding the value, which is exact because PutUvarint's
// minimal encoding is the only one Dump ever writes.
type pread struct {
	r   *bufio.Reader
	sum hash.Hash32
	err error
}

func (p *pread) bytes(n int) []byte {
	if p.err != nil {
		return nil
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(p.r, out); err != nil {
		p.err = err
		return nil
	}
	p.sum.Write(out)
	return out
}

func (p *pread) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(p.r)
	if err != nil {
		p.err = err
		return 0
	}
	var buf [binary.MaxVarintLen64]byte
	p.sum.Write(buf[:binary.PutUvarint(buf[:], v)])
	return v
}

func (p *pread) bool() bool {
	b := p.bytes(1)
	return p.err == nil && b[0] != 0
}

func (p *pread) blobCopy() []byte {
	n := p.uvarint()
	if p.err != nil {
		return nil
	}
	const maxBlob = 1 << 24
	if n > maxBlob {
		p.err = fmt.Errorf("corrupt snapshot: %d-byte record", n)
		return nil
	}
	return p.bytes(int(n))
}

func (p *pread) str() string { return string(p.blobCopy()) }
