package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// File format: magic, version, name length + name, record count, then
// packed 8-byte little-endian records.
const (
	fileMagic   = 0x4d425054 // "MBPT"
	fileVersion = 1

	// maxPreallocRecords caps the buffer Load reserves from a header
	// record count (8 MiB of records).
	maxPreallocRecords = 1 << 20
)

// Save writes the buffer in the binary trace format.
func (b *Buffer) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(b.Name)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(b.records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(b.Name); err != nil {
		return err
	}
	var rec [8]byte
	for _, p := range b.records {
		binary.LittleEndian.PutUint64(rec[:], uint64(p))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a trace previously written by Save.
func Load(r io.Reader) (*Buffer, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[8:])
	count := binary.LittleEndian.Uint32(hdr[12:])
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	// The header's count is untrusted: preallocate at most
	// maxPreallocRecords and let append grow past it, so a hostile
	// count costs at most 8 MiB beyond the records actually present.
	b := NewBuffer(string(name), int(min(count, maxPreallocRecords)))
	var rec [8]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		b.records = append(b.records, Packed(binary.LittleEndian.Uint64(rec[:])))
	}
	return b, nil
}
