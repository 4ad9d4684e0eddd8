package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// File format, all little-endian. Every file starts with the magic and
// a version.
//
// Version 2, the one Save writes: a 24-byte header — magic, version,
// name length (uint32 each), instruction count (uint64), record count
// (uint32) — then the name, then the buffer's run-length records, 8
// bytes each exactly as held in memory, then a CRC-32C (Castagnoli) of
// the record bytes (uint32).
//
// Version 1, read only: a 16-byte header — magic, version, name length,
// record count (uint32 each) — then the name, then one 8-byte record
// per instruction with bits 56-63 clear.
const (
	fileMagic = 0x4d425054 // "MBPT"

	fileV1 = 1
	fileV2 = 2

	v1HeaderBytes = 16
	v2HeaderBytes = 24

	// maxNameLen is the longest trace name the format carries; Load
	// rejects a longer header claim and Save refuses a longer name.
	maxNameLen = 1 << 16

	// chunkBytes is the unit of trace-file I/O: Load reads and Save
	// writes the record body this many bytes at a time.
	chunkBytes   = 64 << 10
	chunkRecords = chunkBytes / 8
)

// castagnoli is the CRC-32C table of the v2 checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends the v2 file header and name for a trace of
// instrs instructions in records records. It fails when Load would
// reject the name or the uint32 record count would truncate records.
func appendHeader(dst []byte, name string, instrs uint64, records int) ([]byte, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds %d", len(name), maxNameLen)
	}
	if uint64(records) > math.MaxUint32 {
		return nil, fmt.Errorf("trace: %d records exceed the format's %d", records, uint32(math.MaxUint32))
	}
	dst = binary.LittleEndian.AppendUint32(dst, fileMagic)
	dst = binary.LittleEndian.AppendUint32(dst, fileV2)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = binary.LittleEndian.AppendUint64(dst, instrs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(records))
	return append(dst, name...), nil
}

// Save writes the buffer as a v2 trace file: its records as they are,
// runs included, and their checksum. Records are encoded into a
// chunkBytes buffer and each full chunk is handed to w in one Write, so
// w needs no buffering of its own. A name longer than 64 KiB or more
// than 2^32-1 records cannot be represented; Save reports either before
// writing anything.
func (b *Buffer) Save(w io.Writer) error {
	buf, err := appendHeader(make([]byte, 0, chunkBytes), b.Name, b.n, len(b.records))
	if err != nil {
		return err
	}
	var sum uint32
	body := len(buf) // where the chunk's record bytes start
	flush := func() error {
		sum = crc32.Update(sum, castagnoli, buf[body:])
		_, err := w.Write(buf)
		buf, body = buf[:0], 0
		return err
	}
	for _, p := range b.records {
		if len(buf)+8 > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
	}
	if len(buf)+4 > cap(buf) {
		if err := flush(); err != nil {
			return err
		}
	}
	sum = crc32.Update(sum, castagnoli, buf[body:])
	_, err = w.Write(binary.LittleEndian.AppendUint32(buf, sum))
	return err
}

// Load reads a trace file of either version. The record body is read
// chunkBytes at a time and decoded from the chunk. The header's record
// count is untrusted: Load reserves no records from it and grows them
// only as records arrive (in the scratch slice Capture uses too), so a
// hostile count costs one chunk beyond the records actually present.
//
// A v2 file's records are taken as they are, without folding, after
// checks that they are exactly what Save writes for some trace: Load
// rejects a record whose run passes MaxAddress, a record the run before
// it would have folded (each trace has one encoding), runs that do not
// sum to the header's instruction count, and a checksum mismatch. A v1
// file is folded as Append does; a v1 record with any of bits 56-63
// set fails naming the record.
//
// A truncated body fails naming the first missing record, wrapping
// io.EOF when the file ends on a record boundary and io.ErrUnexpectedEOF
// when it ends inside a record.
func Load(r io.Reader) (*Buffer, error) {
	s := scratch.Get().(*[]Packed)
	defer scratch.Put(s)
	return load(r, s)
}

// load is Load growing its records in the scratch slice s.
func load(r io.Reader, s *[]Packed) (*Buffer, error) {
	var hdr [v2HeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	size := v1HeaderBytes
	switch version {
	case fileV1:
	case fileV2:
		size = v2HeaderBytes
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if _, err := io.ReadFull(r, hdr[8:size]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header has begun
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[8:])
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if version == fileV1 {
		count := binary.LittleEndian.Uint32(hdr[12:])
		return build(string(name), s, func(b *Buffer) error {
			return readRecords(r, count, func(chunk []byte, i int) error {
				for k := 0; k < len(chunk); k, i = k+8, i+1 {
					p := Packed(binary.LittleEndian.Uint64(chunk[k:]))
					if p>>runShift != 0 {
						return fmt.Errorf("trace: record %d: reserved bits 56-63 set (%#016x)", i, uint64(p))
					}
					b.add(p)
				}
				return nil
			})
		})
	}
	instrs := binary.LittleEndian.Uint64(hdr[12:])
	count := binary.LittleEndian.Uint32(hdr[20:])
	return build(string(name), s, func(b *Buffer) error {
		var sum uint32
		err := readRecords(r, count, func(chunk []byte, i int) error {
			sum = crc32.Update(sum, castagnoli, chunk)
			for k := 0; k < len(chunk); k, i = k+8, i+1 {
				p := Packed(binary.LittleEndian.Uint64(chunk[k:]))
				if int(p.PC())+p.Run() > MaxAddress {
					return fmt.Errorf("trace: record %d: run of %d from pc %d passes address %d", i, p.Run(), p.PC(), MaxAddress)
				}
				if i > 0 && p&^(maxRun<<runShift) < 1<<pcBits && b.records[i-1].room(p.PC()) > 0 {
					return fmt.Errorf("trace: record %d: plain instruction at %d not folded into the run before it", i, p.PC())
				}
				b.records = append(b.records, p)
				b.n += 1 + uint64(p.Run())
			}
			return nil
		})
		if err != nil {
			return err
		}
		var trailer [4]byte
		if _, err := io.ReadFull(r, trailer[:]); err != nil {
			return fmt.Errorf("trace: reading checksum: %w", err)
		}
		if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
			return fmt.Errorf("trace: checksum mismatch: file has %#08x, records hash to %#08x", got, sum)
		}
		if b.n != instrs {
			return fmt.Errorf("trace: records hold %d instructions, header says %d", b.n, instrs)
		}
		return nil
	})
}

// readRecords reads count 8-byte records chunkBytes at a time and hands
// take each chunk's whole records, with the index of the first. It
// stops at take's first error or at the first missing record, which it
// names.
func readRecords(r io.Reader, count uint32, take func(chunk []byte, first int) error) error {
	chunk := make([]byte, 8*int(min(count, chunkRecords)))
	for i := 0; i < int(count); {
		n := min(int(count)-i, chunkRecords)
		got, err := io.ReadFull(r, chunk[:8*n])
		if err := take(chunk[:got-got%8], i); err != nil {
			return err
		}
		i += got / 8
		if err != nil {
			if err == io.ErrUnexpectedEOF && got%8 == 0 {
				err = io.EOF // the first missing record has no bytes at all
			}
			return fmt.Errorf("trace: reading record %d: %w", i, err)
		}
	}
	return nil
}
