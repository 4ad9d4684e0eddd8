package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// File format: magic, version, name length + name, record count, then
// packed 8-byte little-endian records.
const (
	fileMagic   = 0x4d425054 // "MBPT"
	fileVersion = 1

	// maxNameLen is the longest trace name the format carries; Load
	// rejects a longer header claim and Save refuses a longer name.
	maxNameLen = 1 << 16

	// chunkBytes is the unit of trace-file I/O: Load reads and Save
	// writes the record body this many bytes at a time.
	chunkBytes   = 64 << 10
	chunkRecords = chunkBytes / 8
)

// appendHeader appends the file header and name for a trace of count
// records. It fails when Load would reject the name or the uint32
// record count would truncate count.
func appendHeader(dst []byte, name string, count uint64) ([]byte, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds %d", len(name), maxNameLen)
	}
	if count > math.MaxUint32 {
		return nil, fmt.Errorf("trace: %d records exceed the format's %d", count, uint32(math.MaxUint32))
	}
	dst = binary.LittleEndian.AppendUint32(dst, fileMagic)
	dst = binary.LittleEndian.AppendUint32(dst, fileVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	return append(dst, name...), nil
}

// Save writes the buffer in the binary trace format, one record per
// instruction: each record's run is expanded into the plain records it
// folded. Records are encoded into a chunkBytes buffer and each full
// chunk is handed to w in one Write, so w needs no buffering of its
// own. A name longer than 64 KiB or more than 2^32-1 instructions
// cannot be represented; Save reports either before writing anything.
func (b *Buffer) Save(w io.Writer) error {
	buf, err := appendHeader(make([]byte, 0, chunkBytes), b.Name, b.n)
	if err != nil {
		return err
	}
	for _, p := range b.records {
		// The record, then the plain records of its run (each its PC),
		// as many at a time as the chunk holds.
		rec, pc, end := uint64(p&^(maxRun<<runShift)), uint64(p.PC()), uint64(p.PC())+uint64(p.Run())
		for pc <= end {
			if len(buf)+8 > cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, rec)
			for stop := min(end, pc+uint64(cap(buf)-len(buf))/8); pc < stop; {
				pc++
				buf = binary.LittleEndian.AppendUint64(buf, pc)
			}
			pc++
			rec = pc
		}
	}
	_, err = w.Write(buf)
	return err
}

// Load reads a trace previously written by Save, folding the plain
// runs as Append does. The record body is read chunkBytes at a time
// and decoded from the chunk. The header's record count is untrusted:
// Load reserves no records from it and grows them only as records
// arrive (in the scratch slice Capture uses too), so a hostile count
// costs one chunk beyond the records actually present. A record with
// any of bits 56-63 set — which Save never writes — fails naming the
// record. A truncated body fails naming the first missing record,
// wrapping io.EOF when the file ends on a record boundary and
// io.ErrUnexpectedEOF when it ends inside a record.
func Load(r io.Reader) (*Buffer, error) {
	s := scratch.Get().(*[]Packed)
	defer scratch.Put(s)
	return load(r, s)
}

// load is Load folding into the scratch slice s.
func load(r io.Reader, s *[]Packed) (*Buffer, error) {
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
	count := uint64(binary.LittleEndian.Uint32(hdr[12:]))
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	chunk := make([]byte, 8*int(min(count, chunkRecords)))
	return build(string(name), s, func(b *Buffer) error {
		for b.n < count {
			n := int(min(count-b.n, chunkRecords))
			got, err := io.ReadFull(r, chunk[:8*n])
			for i := 0; i+8 <= got; i += 8 {
				p := Packed(binary.LittleEndian.Uint64(chunk[i:]))
				if p>>runShift != 0 {
					return fmt.Errorf("trace: record %d: reserved bits 56-63 set (%#016x)", b.n, uint64(p))
				}
				b.add(p)
			}
			if err != nil {
				if err == io.ErrUnexpectedEOF && got%8 == 0 {
					err = io.EOF // the first missing record has no bytes at all
				}
				return fmt.Errorf("trace: reading record %d: %w", b.n, err)
			}
		}
		return nil
	})
}
