// Package pagefile implements the on-disk page store underneath the buffer
// pool: a single preallocated file of fixed 8 KiB pages, each carrying a
// small header with a CRC32 of its contents and the WAL LSN it was last
// written under. Page 0 is the file header (magic, version, page size);
// data pages start at id 1. All I/O is page-aligned positional reads and
// writes (ReadAt/WriteAt), so concurrent access to distinct pages never
// interferes and the kernel sees aligned 8 KiB requests.
//
// The page header makes torn or bit-rotted pages detectable: ReadPage
// verifies the checksum and refuses to return a corrupt payload. The LSN
// field records the last WAL position that touched the page, which the
// buffer pool uses to enforce WAL-before-data ordering on dirty page
// flushes and which recovery tooling can use to reason about page age.
package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ordxml/internal/vfs"
)

// PageID names one page slot in the file. ID 0 is the file header page and
// is never handed out for data.
type PageID uint32

const (
	// PageSize is the on-disk size of every page, header included.
	PageSize = 8192
	// HeaderSize is the per-page header: crc32(4) lsn(8) flags(2) reserved(2).
	HeaderSize = 16
	// PayloadSize is the usable payload of a data page.
	PayloadSize = PageSize - HeaderSize
)

// Header is the decoded form of a page header.
type Header struct {
	// CRC is the IEEE CRC32 of the page bytes after the CRC field itself
	// (LSN, flags, reserved, payload).
	CRC uint32
	// LSN is the WAL sequence number the page was last written under.
	LSN uint64
	// Flags is reserved for page-type bits; currently only FlagHeader is set
	// on page 0.
	Flags uint16
}

// Flags values.
const (
	// FlagHeader marks the file header page (page 0).
	FlagHeader uint16 = 1 << 0
)

// File-header payload layout (inside page 0's payload): magic, format
// version, page size. Everything else is reserved zeroes.
const (
	fileMagic   = "ordxmlPG"
	fileVersion = 1
)

// ErrCorrupt reports a page whose checksum does not match its contents.
var ErrCorrupt = errors.New("pagefile: page checksum mismatch")

// ErrBadPage reports a structurally invalid page access (id out of range).
var ErrBadPage = errors.New("pagefile: page id out of range")

// SealPage writes the header fields and checksum into page, which must be a
// full PageSize buffer whose payload (page[HeaderSize:]) is already in
// place. Exposed (with VerifyPage) so the header codec can be fuzzed.
func SealPage(page []byte, lsn uint64, flags uint16) {
	_ = page[PageSize-1]
	binary.LittleEndian.PutUint64(page[4:12], lsn)
	binary.LittleEndian.PutUint16(page[12:14], flags)
	binary.LittleEndian.PutUint16(page[14:16], 0)
	binary.LittleEndian.PutUint32(page[0:4], crc32.ChecksumIEEE(page[4:]))
}

// VerifyPage checks the checksum of a full PageSize buffer and returns the
// decoded header. It never panics on arbitrary input of the right length.
func VerifyPage(page []byte) (Header, error) {
	if len(page) != PageSize {
		return Header{}, fmt.Errorf("pagefile: page buffer is %d bytes, want %d", len(page), PageSize)
	}
	h := Header{
		CRC:   binary.LittleEndian.Uint32(page[0:4]),
		LSN:   binary.LittleEndian.Uint64(page[4:12]),
		Flags: binary.LittleEndian.Uint16(page[12:14]),
	}
	if got := crc32.ChecksumIEEE(page[4:]); got != h.CRC {
		return h, fmt.Errorf("%w: computed %08x, stored %08x", ErrCorrupt, got, h.CRC)
	}
	if page[14] != 0 || page[15] != 0 {
		return h, fmt.Errorf("pagefile: reserved header bytes are nonzero")
	}
	return h, nil
}

// File is one open page file.
type File struct {
	f    vfs.File
	path string
	// pages is the current number of page slots the file has room for
	// (including the header page). Grown in chunks by EnsureSize.
	pages PageID
}

// growChunk is how many pages EnsureSize preallocates at a time, so bulk
// loads extend the file in 2 MiB steps instead of one ftruncate per page.
const growChunk = 256

// Create is CreateFS on the operating system's file system.
func Create(path string) (*File, error) { return CreateFS(vfs.OS, path) }

// CreateFS initializes a fresh page file at path on fsys (truncating any
// existing file) and writes and syncs the header page.
func CreateFS(fsys vfs.FS, path string) (*File, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: create: %w", err)
	}
	pf := &File{f: f, path: path, pages: 1}
	var page [PageSize]byte
	copy(page[HeaderSize:], fileMagic)
	binary.LittleEndian.PutUint16(page[HeaderSize+8:], fileVersion)
	binary.LittleEndian.PutUint32(page[HeaderSize+10:], PageSize)
	SealPage(page[:], 0, FlagHeader)
	if _, err := f.WriteAt(page[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: sync header: %w", err)
	}
	return pf, nil
}

// Open is OpenFS on the operating system's file system.
func Open(path string) (*File, error) { return OpenFS(vfs.OS, path) }

// OpenFS opens an existing page file on fsys and validates its header page.
func OpenFS(fsys vfs.FS, path string) (*File, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: size: %w", err)
	}
	var page [PageSize]byte
	if _, err := f.ReadAt(page[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: read header page: %w", err)
	}
	h, err := VerifyPage(page[:])
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: header page: %w", err)
	}
	if h.Flags&FlagHeader == 0 || string(page[HeaderSize:HeaderSize+len(fileMagic)]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("pagefile: %s is not a page file", path)
	}
	if v := binary.LittleEndian.Uint16(page[HeaderSize+8:]); v != fileVersion {
		f.Close()
		return nil, fmt.Errorf("pagefile: unsupported format version %d", v)
	}
	if ps := binary.LittleEndian.Uint32(page[HeaderSize+10:]); ps != PageSize {
		f.Close()
		return nil, fmt.Errorf("pagefile: file has %d-byte pages, this build uses %d", ps, PageSize)
	}
	return &File{f: f, path: path, pages: PageID(size / PageSize)}, nil
}

// Path returns the file's path.
func (pf *File) Path() string { return pf.path }

// EnsureSize grows the file (in growChunk steps) until it has room for page
// id. Growth is metadata-only preallocation; new slots read back as zeroes
// and fail checksum verification until written, which is exactly the
// "never trust an unwritten page" property recovery wants.
func (pf *File) EnsureSize(id PageID) error {
	if id < pf.pages {
		return nil
	}
	want := (PageID(id)/growChunk + 1) * growChunk
	if err := pf.f.Truncate(int64(want) * PageSize); err != nil {
		return fmt.Errorf("pagefile: grow to %d pages: %w", want, err)
	}
	pf.pages = want
	return nil
}

// WritePage seals payload under lsn and writes it to page id. payload must
// be exactly PayloadSize bytes; id must be a data page (not 0).
func (pf *File) WritePage(id PageID, lsn uint64, payload []byte) error {
	if id == 0 {
		return fmt.Errorf("%w: 0 is the file header", ErrBadPage)
	}
	if len(payload) != PayloadSize {
		return fmt.Errorf("pagefile: payload is %d bytes, want %d", len(payload), PayloadSize)
	}
	if err := pf.EnsureSize(id); err != nil {
		return err
	}
	var page [PageSize]byte
	copy(page[HeaderSize:], payload)
	SealPage(page[:], lsn, 0)
	if _, err := pf.f.WriteAt(page[:], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", id, err)
	}
	return nil
}

// ReadPage reads page id, verifies its checksum, and returns its header and
// its payload. The payload is the tail of the one buffer the page was read
// into — one allocation and no copy per call — and belongs to the caller.
func (pf *File) ReadPage(id PageID) (Header, []byte, error) {
	if id == 0 {
		return Header{}, nil, fmt.Errorf("%w: 0 is the file header", ErrBadPage)
	}
	page := make([]byte, PageSize)
	if _, err := pf.f.ReadAt(page, int64(id)*PageSize); err != nil {
		return Header{}, nil, fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	h, err := VerifyPage(page)
	if err != nil {
		return h, nil, fmt.Errorf("page %d: %w", id, err)
	}
	return h, page[HeaderSize:], nil
}

// Sync flushes all written pages to stable storage.
func (pf *File) Sync() error {
	if err := pf.f.Sync(); err != nil {
		return fmt.Errorf("pagefile: sync: %w", err)
	}
	return nil
}

// Close releases the file handle without syncing.
func (pf *File) Close() error { return pf.f.Close() }
