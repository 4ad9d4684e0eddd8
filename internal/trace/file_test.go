package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"mbbp/internal/cpu"
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
// name, the rest are raw packed records with bits 56-63 cleared,
// appended one instruction each (a trailing partial record is
// dropped).
func bufferFrom(data []byte) *Buffer {
	var name string
	if len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		name, data = string(data[1:1+n]), data[1+n:]
	}
	b := NewBuffer(name)
	for ; len(data) >= 8; data = data[8:] {
		b.Append(Unpack(Packed(binary.LittleEndian.Uint64(data))))
	}
	return b
}

// roundTrip checks Load(Save(b)) reproduces b's name, instruction
// count and records.
func roundTrip(t *testing.T, b *Buffer) {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), savePerRecord(b)) {
		t.Fatal("round trip: Save bytes differ from the per-record encoding")
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("reloading a saved buffer: %v", err)
	}
	if got.Name != b.Name || got.n != b.n || len(got.records) != len(b.records) {
		t.Fatalf("round trip: name %q len %d (%d records), want %q len %d (%d records)",
			got.Name, got.n, len(got.records), b.Name, b.n, len(b.records))
	}
	for i := range b.records {
		if got.records[i] != b.records[i] {
			t.Fatalf("round trip: record %d = %#x, want %#x", i, got.records[i], b.records[i])
		}
	}
}

// FuzzTraceLoad: Load never panics on any input, agrees with the
// per-record oracle (records or exact error text), whatever it loads
// saves back to the very bytes it was loaded from and survives a
// save/load round trip, and any buffer round-trips through the file
// format with the naive encoder's bytes. The committed corpus under
// testdata/fuzz holds a valid trace, truncations, bad magic and
// version, an implausible name length, the hostile record count and a
// record with reserved bits 56-63 set.
func FuzzTraceLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, "fuzz input", data)
		if b, err := Load(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := b.Save(&out); err != nil {
				t.Fatal(err)
			}
			if size := 16 + len(b.Name) + 8*int(b.n); !bytes.Equal(out.Bytes(), data[:size]) {
				t.Fatal("Save(Load(f)) differs from the bytes of f it loaded")
			}
			roundTrip(t, b)
		}
		roundTrip(t, bufferFrom(data))
	})
}

// loadPerRecord is the record-at-a-time Load the chunked one replaced,
// kept as the oracle for its results and its exact error text. Like
// Load it rejects a record with any of bits 56-63 set, which a buffer
// uses for its runs, and appends the rest one instruction each.
func loadPerRecord(r io.Reader) (*Buffer, error) {
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
	b := NewBuffer(string(name))
	var rec [8]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		v := binary.LittleEndian.Uint64(rec[:])
		if v>>56 != 0 {
			return nil, fmt.Errorf("trace: record %d: reserved bits 56-63 set (%#016x)", i, v)
		}
		b.Append(Unpack(Packed(v)))
	}
	return b, nil
}

// savePerRecord is a naive encoder of the file format, one field and
// one instruction at a time over a Next walk, kept as the oracle for
// Save's bytes.
func savePerRecord(b *Buffer) []byte {
	var out []byte
	for _, v := range []uint32{fileMagic, fileVersion, uint32(len(b.Name)), uint32(b.Len())} {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	out = append(out, b.Name...)
	c := b.Clone()
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		out = binary.LittleEndian.AppendUint64(out, uint64(Pack(r)))
	}
	return out
}

// checkAgainstOracle loads data with Load and with loadPerRecord and
// requires the same records, or the same error text wrapping the same
// end-of-file sentinel — through a plain reader and through readers
// that return short reads or io.EOF together with the last bytes.
func checkAgainstOracle(t *testing.T, label string, data []byte) {
	t.Helper()
	want, wantErr := loadPerRecord(bytes.NewReader(data))
	readers := map[string]func(io.Reader) io.Reader{
		"plain":    func(r io.Reader) io.Reader { return r },
		"half":     iotest.HalfReader,
		"one-byte": iotest.OneByteReader,
		"data-err": iotest.DataErrReader,
	}
	for name, wrap := range readers {
		got, err := Load(wrap(bytes.NewReader(data)))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s (%s reader): Load error %v, per-record oracle error %v", label, name, err, wantErr)
		}
		if wantErr != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("%s (%s reader): Load error %q, want %q", label, name, err, wantErr)
			}
			for _, sentinel := range []error{io.EOF, io.ErrUnexpectedEOF} {
				if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
					t.Fatalf("%s (%s reader): Load error %v wraps %v differently from the oracle", label, name, err, sentinel)
				}
			}
			continue
		}
		if got.Name != want.Name || got.n != want.n || !slices.Equal(got.records, want.records) {
			t.Fatalf("%s (%s reader): Load gave %q with %d records, oracle %q with %d", label, name,
				got.Name, len(got.records), want.Name, len(want.records))
		}
	}
}

// randomBuffer is a named buffer of n pseudo-random instructions: half
// of them random packed records, half the plain instruction after the
// one before, so runs of every short length fold between them.
func randomBuffer(name string, n int, seed uint64) *Buffer {
	rng := rand.New(rand.NewPCG(seed, 0))
	b := NewBuffer(name)
	var pc uint32
	for range n {
		r := Unpack(Packed(rng.Uint64()))
		if rng.IntN(2) == 0 {
			r = cpu.Retired{PC: pc + 1}
		}
		b.Append(r)
		pc = r.PC
	}
	return b
}

// TestFileChunkBoundaries runs Save and Load across record counts on
// both sides of the I/O chunk edges: Save's bytes equal the naive
// encoder's, Load restores the buffer, and every truncation — header
// only, mid-name, mid-record, at a record boundary and at a chunk edge
// — fails with the per-record oracle's exact error.
func TestFileChunkBoundaries(t *testing.T) {
	const name = "chunky"
	body := 16 + len(name)
	for _, n := range []int{0, 1, chunkRecords - 1, chunkRecords, chunkRecords + 1, 3*chunkRecords + 5} {
		b := randomBuffer(name, n, uint64(n))
		var out bytes.Buffer
		if err := b.Save(&out); err != nil {
			t.Fatal(err)
		}
		data := out.Bytes()
		if !bytes.Equal(data, savePerRecord(b)) {
			t.Fatalf("n=%d: Save bytes differ from the per-record encoding", n)
		}
		checkAgainstOracle(t, fmt.Sprintf("n=%d whole", n), data)
		cuts := map[string]int{
			"header only": 16,
			"mid-name":    16 + len(name)/2,
		}
		if n > 0 {
			cuts["mid-record"] = body + 8*(n/2) + 3
			cuts["record boundary"] = body + 8*(n/2)
			cuts["last byte missing"] = len(data) - 1
		}
		for k := 1; k*chunkRecords < n; k++ {
			cuts[fmt.Sprintf("chunk edge %d", k)] = body + 8*k*chunkRecords
			cuts[fmt.Sprintf("chunk edge %d+5", k)] = body + 8*k*chunkRecords + 5
		}
		for label, cut := range cuts {
			checkAgainstOracle(t, fmt.Sprintf("n=%d %s (%d of %d bytes)", n, label, cut, len(data)), data[:cut])
		}
	}
}

// recordingWriter counts the bytes written to it.
type recordingWriter struct{ n int }

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestSaveRejectsUnloadable: Save refuses, before writing a byte, the
// buffers the format cannot carry — a name Load would reject as
// implausible and a record count the uint32 header field would
// truncate. The longest legal name still round-trips.
func TestSaveRejectsUnloadable(t *testing.T) {
	long := NewBuffer(strings.Repeat("n", maxNameLen+1))
	var w recordingWriter
	if err := long.Save(&w); err == nil || !strings.Contains(err.Error(), "name length 65537") {
		t.Fatalf("Save of a %d-byte name: err %v, want a name-length error", len(long.Name), err)
	}
	if w.n != 0 {
		t.Errorf("rejected Save wrote %d bytes", w.n)
	}
	roundTrip(t, randomBuffer(strings.Repeat("n", maxNameLen), 3, 1))

	if strconv.IntSize < 64 {
		t.Skip("a record count above 2^32-1 needs a 64-bit int")
	}
	over := uint64(math.MaxUint32) + 1
	if _, err := appendHeader(nil, "big", over); err == nil || !strings.Contains(err.Error(), "4294967296 records") {
		t.Fatalf("header for %d records: err %v, want a record-count error", over, err)
	}
	if _, err := appendHeader(nil, "big", math.MaxUint32); err != nil {
		t.Fatalf("header for 2^32-1 records: %v", err)
	}
}

// TestFileAllocsFixed: Load and Save allocate a fixed number of times
// whatever the record count — the chunked I/O makes no per-record or
// per-chunk allocation, and Load grows its records in a reused scratch
// slice, then copies them out in one allocation. Load's body runs with
// a scratch slice of the test's own: the pool Load takes it from keeps
// nothing for certain (under the race detector it drops slices at
// random by design). The collector is off: now and then a collection
// cycle adds allocations of its own to the count.
func TestFileAllocsFixed(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var s []Packed
	var loadAllocs, saveAllocs float64
	for i, n := range []int{1, chunkRecords + 1, 3*chunkRecords + 5, 1 << 20} {
		b := randomBuffer("allocs", n, 7)
		var out bytes.Buffer
		if err := b.Save(&out); err != nil {
			t.Fatal(err)
		}
		data := out.Bytes()
		loads := testing.AllocsPerRun(3, func() {
			if _, err := load(bytes.NewReader(data), &s); err != nil {
				t.Fatal(err)
			}
		})
		saves := testing.AllocsPerRun(3, func() {
			if err := b.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			loadAllocs, saveAllocs = loads, saves
			continue
		}
		if loads != loadAllocs || saves != saveAllocs {
			t.Errorf("n=%d: Load %v / Save %v allocations, want %v / %v as for one record",
				n, loads, saves, loadAllocs, saveAllocs)
		}
	}
}
