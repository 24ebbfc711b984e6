// Package snapshot implements the versioned, checksummed binary container
// used to serialize complete simulated-machine state (see DESIGN.md,
// "Snapshot file format"). A snapshot is a sequence of named sections, each
// holding a stream of varint-coded primitives, wrapped in a header (magic,
// format version, 32-byte context digest) and a CRC64-ECMA trailer over
// everything that precedes it.
//
// The container is deliberately dumb: it knows nothing about caches or
// directories. Components encode themselves with the primitive putters on
// Writer and decode with the symmetric getters on Reader. Both sides carry a
// sticky error so call sites can encode long field sequences without
// per-call error checks and inspect Err once at the end.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
)

// FormatVersion is the current snapshot format version. Bump it whenever a
// section layout changes; Reader rejects mismatched versions so stale
// checkpoints are discarded instead of misparsed.
const FormatVersion = 3

// magic identifies snapshot files ("Tiny Directory SNapshot").
const magic = "TDSN"

var crcTable = crc64.MakeTable(crc64.ECMA)

// Writer accumulates sections and primitives, then Finish emits the framed,
// checksummed container.
type Writer struct {
	version  uint64
	digest   [32]byte
	ids      []uint64
	sections []*bytes.Buffer
	cur      *bytes.Buffer
	err      error
	tmp      [binary.MaxVarintLen64]byte
}

// NewWriter starts a snapshot with the given format version and context
// digest (a hash binding the snapshot to the configuration that produced
// it; Reader exposes it so callers can refuse to restore into a different
// machine).
func NewWriter(version uint64, digest [32]byte) *Writer {
	return &Writer{version: version, digest: digest}
}

// Fail records err as the writer's sticky error (first one wins).
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Err returns the sticky error, if any.
func (w *Writer) Err() error { return w.err }

// Section starts a new section with the given id. All subsequent primitive
// puts go into it until the next Section call.
func (w *Writer) Section(id uint64) {
	w.cur = &bytes.Buffer{}
	w.ids = append(w.ids, id)
	w.sections = append(w.sections, w.cur)
}

func (w *Writer) putUvarint(b *bytes.Buffer, v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	b.Write(w.tmp[:n])
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.cur == nil {
		w.Fail(fmt.Errorf("snapshot: put before first Section"))
		return
	}
	w.putUvarint(w.cur, v)
}

// I64 appends a zigzag-coded signed varint.
func (w *Writer) I64(v int64) {
	if w.cur == nil {
		w.Fail(fmt.Errorf("snapshot: put before first Section"))
		return
	}
	n := binary.PutVarint(w.tmp[:], v)
	w.cur.Write(w.tmp[:n])
}

// Int appends an int (as a signed varint).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	if w.cur != nil {
		w.cur.Write(b)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Finish frames the accumulated sections and writes the complete snapshot
// to out: magic, version, digest, section count, per-section (id, length,
// payload), CRC64-ECMA trailer.
func (w *Writer) Finish(out io.Writer) error {
	if w.err != nil {
		return w.err
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	w.putUvarint(&buf, w.version)
	buf.Write(w.digest[:])
	w.putUvarint(&buf, uint64(len(w.sections)))
	for i, s := range w.sections {
		w.putUvarint(&buf, w.ids[i])
		w.putUvarint(&buf, uint64(s.Len()))
		buf.Write(s.Bytes())
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc64.Checksum(buf.Bytes(), crcTable))
	buf.Write(trailer[:])
	_, err := out.Write(buf.Bytes())
	return err
}

// Reader parses a snapshot produced by Writer. The whole input is read and
// checksummed up front, so a torn or corrupted file fails in NewReader
// before any component state has been touched.
type Reader struct {
	version  uint64
	digest   [32]byte
	ids      []uint64
	sections [][]byte
	next     int    // next section index for Section()
	cur      []byte // remaining bytes of the open section
	err      error
}

// NewReader reads the complete snapshot from r, verifies magic, version
// support and checksum, and indexes the sections.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if len(data) < len(magic)+32+1+8 {
		return nil, fmt.Errorf("snapshot: truncated (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if got, want := crc64.Checksum(body, crcTable), binary.LittleEndian.Uint64(trailer); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file %016x, computed %016x)", want, got)
	}
	if string(body[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", body[:len(magic)])
	}
	rd := &Reader{}
	p := body[len(magic):]
	rd.version, p, err = getUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("snapshot: version: %w", err)
	}
	if rd.version != FormatVersion {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads %d", rd.version, FormatVersion)
	}
	if len(p) < 32 {
		return nil, fmt.Errorf("snapshot: truncated digest")
	}
	copy(rd.digest[:], p[:32])
	p = p[32:]
	var nsec uint64
	nsec, p, err = getUvarint(p)
	if err != nil {
		return nil, fmt.Errorf("snapshot: section count: %w", err)
	}
	for i := uint64(0); i < nsec; i++ {
		var id, n uint64
		id, p, err = getUvarint(p)
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %d id: %w", i, err)
		}
		n, p, err = getUvarint(p)
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %d length: %w", i, err)
		}
		if uint64(len(p)) < n {
			return nil, fmt.Errorf("snapshot: section %d truncated (%d of %d bytes)", i, len(p), n)
		}
		rd.ids = append(rd.ids, id)
		rd.sections = append(rd.sections, p[:n])
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after sections", len(p))
	}
	return rd, nil
}

func getUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, p[n:], nil
}

// Version returns the snapshot's format version.
func (r *Reader) Version() uint64 { return r.version }

// Digest returns the context digest recorded at save time.
func (r *Reader) Digest() [32]byte { return r.digest }

// Fail records err as the reader's sticky error (first one wins).
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Section opens the next section and verifies its id. Sections must be read
// in the order they were written.
func (r *Reader) Section(id uint64) {
	if r.err != nil {
		return
	}
	if r.next > 0 && len(r.cur) != 0 {
		r.Fail(fmt.Errorf("snapshot: section %d has %d unread bytes", r.ids[r.next-1], len(r.cur)))
		return
	}
	if r.next >= len(r.sections) {
		r.Fail(fmt.Errorf("snapshot: no section %d (only %d sections)", id, len(r.sections)))
		return
	}
	if r.ids[r.next] != id {
		r.Fail(fmt.Errorf("snapshot: expected section %d, found %d", id, r.ids[r.next]))
		return
	}
	r.cur = r.sections[r.next]
	r.next++
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.cur)
	if n <= 0 {
		r.Fail(fmt.Errorf("snapshot: short read (uvarint)"))
		return 0
	}
	r.cur = r.cur[n:]
	return v
}

// I64 reads a zigzag-coded signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.cur)
	if n <= 0 {
		r.Fail(fmt.Errorf("snapshot: short read (varint)"))
		return 0
	}
	r.cur = r.cur[n:]
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// Bytes reads a length-prefixed byte string (an independent copy).
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.cur)) < n {
		r.Fail(fmt.Errorf("snapshot: short read (%d byte string, %d left)", n, len(r.cur)))
		return nil
	}
	out := make([]byte, n)
	copy(out, r.cur[:n])
	r.cur = r.cur[n:]
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }
