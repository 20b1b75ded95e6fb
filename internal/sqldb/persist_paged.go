package sqldb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/sqltypes"
)

// Paged-checkpoint manifest: the durable root of a database whose storage
// lives in a buffer-pooled page file. The manifest records only *references*
// — the page-id allocator state, each table's heap page list, and each index
// tree's root page — so checkpointing a large store writes the dirty pages
// plus a few kilobytes of manifest, not the whole database.
//
// Layout: magic, version, allocator state (next id, free list), table count,
// then per table: name, columns, row count, heap page ids, and per index:
// name, columns, uniqueness, root page id, entry count. All integers are
// uvarints; strings are uvarint-length-prefixed. The file ends with a
// checksum trailer — trailer magic plus the CRC32 (IEEE) of every body byte
// before it — so a truncated or corrupt manifest is rejected, not misread.

const (
	pagedMagic   = "ordxmlPM"
	pagedVersion = 1
	trailerMagic = "ordxmlCK"
	// manifestMaxList bounds list lengths read from a manifest so a corrupt
	// count fails cleanly instead of attempting a huge allocation.
	manifestMaxList = 1 << 26
)

// DumpPaged assigns pages to every index tree, then writes the checkpoint
// manifest to w. Takes the engine's write lock: tree serialization assigns
// page ids. Only writers allocate and free ids, so the caller keeps them out
// while it flushes and syncs the pool's page file, installs the manifest and
// commits the pool's allocator (bufpool.Pool.CommitCheckpoint).
func (db *DB) DumpPaged(w io.Writer) error {
	pool := db.cat.Pool()
	if pool == nil {
		return errors.New("sqldb: DumpPaged on a database without a buffer pool")
	}
	db.mu.Lock()
	defer db.mu.Unlock()

	// Serialize every index tree first: WritePages allocates pages for
	// changed nodes and releases superseded ones, and the allocator state
	// written below must reflect all of it.
	names := db.cat.TableNames()
	roots := map[*catalog.Index]bufpool.PageID{}
	for _, name := range names {
		t := db.cat.Table(name)
		for _, ix := range t.Indexes {
			root, err := ix.Tree.WritePages()
			if err != nil {
				return fmt.Errorf("index %s: %w", ix.Name, err)
			}
			roots[ix] = root
		}
	}
	st := pool.PlannedState()

	sum := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	out := &perr{w: bw}
	out.bytes([]byte(pagedMagic))
	out.uvarint(pagedVersion)
	out.uvarint(uint64(st.Next))
	out.uvarint(uint64(len(st.Free)))
	for _, id := range st.Free {
		out.uvarint(uint64(id))
	}
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
		ids := t.Heap.PageIDs()
		out.uvarint(uint64(len(ids)))
		for _, id := range ids {
			out.uvarint(uint64(id))
		}
		out.uvarint(uint64(len(t.Indexes)))
		for _, ix := range t.Indexes {
			out.str(ix.Name)
			cols := ix.ColumnNames()
			out.uvarint(uint64(len(cols)))
			for _, c := range cols {
				out.str(c)
			}
			out.bool(ix.Unique)
			out.uvarint(uint64(roots[ix]))
			out.uvarint(uint64(ix.Tree.Len()))
		}
	}
	if out.err != nil {
		return out.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tr [len(trailerMagic) + 4]byte
	copy(tr[:], trailerMagic)
	binary.LittleEndian.PutUint32(tr[len(trailerMagic):], sum.Sum32())
	_, err := w.Write(tr[:])
	return err
}

// manifest is the fully-parsed form of a paged checkpoint, decoded and
// checksum-verified before any pool or catalog state is touched.
type manifest struct {
	alloc  bufpool.AllocState
	tables []manifestTable
}

type manifestTable struct {
	name    string
	columns []catalog.Column
	rows    int
	pages   []bufpool.PageID
	indexes []manifestIndex
}

type manifestIndex struct {
	name   string
	cols   []string
	unique bool
	root   bufpool.PageID
	size   int
}

// LoadPaged reads a checkpoint manifest and opens the database it describes
// over pool. No table data is read here: heaps adopt their page lists and
// index trees start as root stubs, both faulting pages in on first touch, so
// opening a beyond-RAM store is O(manifest), not O(data).
func LoadPaged(r io.Reader, pool *bufpool.Pool) (*DB, error) {
	m, err := readManifest(r)
	if err != nil {
		return nil, err
	}
	pool.Restore(m.alloc)
	db := OpenPooled(pool)
	for _, mt := range m.tables {
		h := heap.RestorePaged(pool, mt.pages, mt.rows)
		t, err := db.cat.AttachTable(mt.name, mt.columns, h)
		if err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
		for _, mi := range mt.indexes {
			tree := btree.Restore(pool, mi.root, mi.size)
			if _, err := db.cat.AttachIndex(mi.name, t.Name, mi.cols, mi.unique, tree); err != nil {
				return nil, fmt.Errorf("manifest: %w", err)
			}
		}
	}
	db.publish()
	return db, nil
}

func readManifest(r io.Reader) (*manifest, error) {
	br := bufio.NewReader(r)
	in := &pread{r: br, sum: crc32.NewIEEE()}
	magic := in.bytes(len(pagedMagic))
	if in.err == nil && string(magic) != pagedMagic {
		return nil, fmt.Errorf("not an ordxml paged-checkpoint manifest")
	}
	if version := in.uvarint(); in.err == nil && version != pagedVersion {
		return nil, fmt.Errorf("unsupported manifest version %d (this build reads version %d)",
			version, pagedVersion)
	}
	listLen := func(what string) int {
		n := in.uvarint()
		if in.err == nil && n > manifestMaxList {
			in.err = fmt.Errorf("corrupt manifest: %d %s", n, what)
		}
		return int(n)
	}
	m := &manifest{}
	m.alloc.Next = bufpool.PageID(in.uvarint())
	nFree := listLen("free ids")
	for i := 0; i < nFree && in.err == nil; i++ {
		m.alloc.Free = append(m.alloc.Free, bufpool.PageID(in.uvarint()))
	}
	nTables := listLen("tables")
	for ti := 0; ti < nTables && in.err == nil; ti++ {
		var mt manifestTable
		mt.name = in.str()
		nCols := listLen("columns")
		for ci := 0; ci < nCols && in.err == nil; ci++ {
			mt.columns = append(mt.columns, catalog.Column{
				Name:    in.str(),
				Type:    sqltypes.Type(in.uvarint()),
				NotNull: in.bool(),
			})
		}
		mt.rows = int(in.uvarint())
		nPages := listLen("heap pages")
		for pi := 0; pi < nPages && in.err == nil; pi++ {
			mt.pages = append(mt.pages, bufpool.PageID(in.uvarint()))
		}
		nIdx := listLen("indexes")
		for ii := 0; ii < nIdx && in.err == nil; ii++ {
			var mi manifestIndex
			mi.name = in.str()
			nc := listLen("index columns")
			for c := 0; c < nc && in.err == nil; c++ {
				mi.cols = append(mi.cols, in.str())
			}
			mi.unique = in.bool()
			mi.root = bufpool.PageID(in.uvarint())
			mi.size = int(in.uvarint())
			mt.indexes = append(mt.indexes, mi)
		}
		m.tables = append(m.tables, mt)
	}
	if in.err != nil {
		return nil, fmt.Errorf("manifest read: %w", in.err)
	}
	got := in.sum.Sum32()
	tr := in.bytes(len(trailerMagic) + 4)
	if in.err != nil {
		return nil, fmt.Errorf("manifest is truncated (missing checksum trailer): %w", in.err)
	}
	if string(tr[:len(trailerMagic)]) != trailerMagic {
		return nil, fmt.Errorf("manifest is truncated or corrupt (bad checksum trailer magic %q)",
			tr[:len(trailerMagic)])
	}
	if want := binary.LittleEndian.Uint32(tr[len(trailerMagic):]); want != got {
		return nil, fmt.Errorf("manifest checksum mismatch (computed %08x, stored %08x)", got, want)
	}
	return m, nil
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

func (p *perr) str(s string) {
	p.uvarint(uint64(len(s)))
	p.bytes([]byte(s))
}

// pread is the matching sticky-error reader. It maintains a running CRC of
// the bytes it has consumed so readManifest can verify the trailer; uvarints
// are hashed by re-encoding the value, which is exact because PutUvarint's
// minimal encoding is the only one DumpPaged ever writes.
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

func (p *pread) str() string {
	n := p.uvarint()
	if p.err != nil {
		return ""
	}
	const maxStr = 1 << 24
	if n > maxStr {
		p.err = fmt.Errorf("corrupt manifest: %d-byte string", n)
		return ""
	}
	return string(p.bytes(int(n)))
}
