package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// File format: magic, version, name length + name, record count, then
// packed 8-byte little-endian records.
const (
	fileMagic   = 0x4d425054 // "MBPT"
	fileVersion = 1

	// maxNameLen is the longest trace name the format carries; Load
	// rejects a longer header claim and Save refuses a longer name.
	maxNameLen = 1 << 16

	// maxPreallocRecords caps the buffer Load reserves from a header
	// record count (8 MiB of records).
	maxPreallocRecords = 1 << 20

	// chunkBytes is the unit of trace-file I/O: Load reads and Save
	// writes the record body this many bytes at a time.
	chunkBytes   = 64 << 10
	chunkRecords = chunkBytes / 8
)

// appendHeader appends the file header and name for a trace of count
// records. It fails when Load would reject the name or the uint32
// record count would truncate count.
func appendHeader(dst []byte, name string, count int) ([]byte, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds %d", len(name), maxNameLen)
	}
	if uint64(count) > math.MaxUint32 {
		return nil, fmt.Errorf("trace: %d records exceed the format's %d", count, uint32(math.MaxUint32))
	}
	dst = binary.LittleEndian.AppendUint32(dst, fileMagic)
	dst = binary.LittleEndian.AppendUint32(dst, fileVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	return append(dst, name...), nil
}

// Save writes the buffer in the binary trace format. Records are
// encoded into a chunkBytes buffer and each full chunk is handed to w
// in one Write, so w needs no buffering of its own. A name longer than
// 64 KiB or more than 2^32-1 records cannot be represented; Save
// reports either before writing anything.
func (b *Buffer) Save(w io.Writer) error {
	buf, err := appendHeader(make([]byte, 0, chunkBytes), b.Name, len(b.records))
	if err != nil {
		return err
	}
	recs := b.records
	for {
		n := min(len(recs), (cap(buf)-len(buf))/8)
		for _, p := range recs[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
		}
		recs = recs[n:]
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		buf = buf[:0]
	}
}

// Load reads a trace previously written by Save. The record body is
// read chunkBytes at a time and decoded in place into the buffer. The
// header's record count is untrusted: Load preallocates at most
// maxPreallocRecords and grows past that only as records arrive, so a
// hostile count costs at most 8 MiB beyond the records actually
// present. A truncated body fails naming the first missing record,
// wrapping io.EOF when the file ends on a record boundary and
// io.ErrUnexpectedEOF when it ends inside a record.
func Load(r io.Reader) (*Buffer, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[8:])
	count := int64(binary.LittleEndian.Uint32(hdr[12:])) // int64: exceeds int on 32-bit hosts
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	recs := make([]Packed, 0, int(min(count, maxPreallocRecords)))
	chunk := make([]byte, 8*int(min(count, chunkRecords)))
	for int64(len(recs)) < count {
		n := int(min(count-int64(len(recs)), chunkRecords))
		got, err := io.ReadFull(r, chunk[:8*n])
		if err != nil {
			if err == io.ErrUnexpectedEOF && got%8 == 0 {
				err = io.EOF // the first missing record has no bytes at all
			}
			return nil, fmt.Errorf("trace: reading record %d: %w", len(recs)+got/8, err)
		}
		base := len(recs)
		recs = slices.Grow(recs, n)[:base+n]
		for i := range recs[base:] {
			recs[base+i] = Packed(binary.LittleEndian.Uint64(chunk[8*i:]))
		}
	}
	return &Buffer{Name: string(name), records: recs}, nil
}
