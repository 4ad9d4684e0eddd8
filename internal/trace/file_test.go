package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// hostileHeader is a 17-byte file whose header claims 0xffffffff
// records but carries one stray byte of payload.
func hostileHeader() []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 0)
	binary.LittleEndian.PutUint32(hdr[12:], 0xffffffff)
	return append(hdr[:], 0)
}

// TestLoadHostileCount: a header record count is a claim, not an
// allocation size. A file that promises 2^32-1 records and holds none
// must fail as truncated without reserving memory for the claim.
func TestLoadHostileCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(hostileHeader()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile header loaded without error")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 16<<20 {
		t.Errorf("hostile header allocated %d bytes, want < 16 MiB", delta)
	}
}

// bufferFrom builds a buffer from fuzz bytes: the first byte sizes the
// name, the rest are raw packed records (a trailing partial record is
// dropped).
func bufferFrom(data []byte) *Buffer {
	var name string
	if len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		name, data = string(data[1:1+n]), data[1+n:]
	}
	b := NewBuffer(name, len(data)/8)
	for ; len(data) >= 8; data = data[8:] {
		b.records = append(b.records, Packed(binary.LittleEndian.Uint64(data)))
	}
	return b
}

// roundTrip checks Load(Save(b)) reproduces b's name and records.
func roundTrip(t *testing.T, b *Buffer) {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("reloading a saved buffer: %v", err)
	}
	if got.Name != b.Name || len(got.records) != len(b.records) {
		t.Fatalf("round trip: name %q len %d, want %q len %d", got.Name, len(got.records), b.Name, len(b.records))
	}
	for i := range b.records {
		if got.records[i] != b.records[i] {
			t.Fatalf("round trip: record %d = %#x, want %#x", i, got.records[i], b.records[i])
		}
	}
}

// FuzzTraceLoad: Load never panics on any input, whatever it loads
// survives a save/load round trip, and any buffer round-trips through
// the file format. The committed corpus under testdata/fuzz holds a
// valid trace, truncations, bad magic and version, an implausible name
// length and the hostile record count.
func FuzzTraceLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := Load(bytes.NewReader(data)); err == nil {
			roundTrip(t, b)
		}
		roundTrip(t, bufferFrom(data))
	})
}
