package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	"mbbp/internal/isa"
)

// hostileHeader is a file of the given version whose header claims
// 0xffffffff records (and, in v2, 2^40 instructions) but which carries
// one stray byte of payload.
func hostileHeader(version uint32) []byte {
	hdr := binary.LittleEndian.AppendUint32(nil, fileMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	if version == fileV2 {
		hdr = binary.LittleEndian.AppendUint64(hdr, 1<<40)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, 0xffffffff)
	return append(hdr, 0)
}

// TestLoadHostileCount: a header record count is a claim, not an
// allocation size. A file of either version that promises 2^32-1
// records and holds none must fail as truncated without reserving
// memory for the claim.
func TestLoadHostileCount(t *testing.T) {
	for _, v := range []uint32{fileV1, fileV2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(hostileHeader(v)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "reading record 0") {
			t.Fatalf("v%d: hostile header: err %v, want a truncation at record 0", v, err)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta >= 16<<20 {
			t.Errorf("v%d: hostile header allocated %d bytes, want < 16 MiB", v, delta)
		}
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

// roundTrip checks that Save writes the naive encoder's bytes and that
// Load of them reproduces b's name, instruction count and records.
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
	sameBuffer(t, "round trip", got, b)
}

// sameBuffer requires got to hold want's name, length and records.
func sameBuffer(t *testing.T, label string, got, want *Buffer) {
	t.Helper()
	if got.Name != want.Name || got.n != want.n || !slices.Equal(got.records, want.records) {
		t.Fatalf("%s: %q with %d instructions in %d records, want %q with %d in %d", label,
			got.Name, got.n, len(got.records), want.Name, want.n, len(want.records))
	}
}

// FuzzTraceLoad: Load never panics on any input and agrees with the
// per-record oracle (records or exact error text). Whatever it loads
// saves as a v2 file that reloads to the same records: the very bytes it
// was loaded from for a v2 file. Any buffer round-trips through the
// file format with the naive encoder's bytes. Each input is also tried
// with its v2 instruction count and checksum repaired, so mutations
// reach the record checks behind them. The committed corpus under
// testdata/fuzz holds, in v1, a valid trace, truncations, bad magic and
// version, an implausible name length, the hostile record count and a
// record with reserved bits 56-63 set; in v2, a valid trace, a bad
// checksum, a truncated body and checksum, an unfolded plain record, a
// run past MaxAddress, an instruction-count mismatch and the hostile
// record count.
func FuzzTraceLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, "fuzz input", data)
		if fixed := repaired(data); fixed != nil {
			checkLoad(t, "repaired input", fixed)
		}
		roundTrip(t, bufferFrom(data))
	})
}

// checkLoad checks Load of data against the oracle and, when it loads,
// the file properties FuzzTraceLoad names.
func checkLoad(t *testing.T, label string, data []byte) {
	t.Helper()
	checkAgainstOracle(t, label, data)
	b, err := Load(bytes.NewReader(data))
	if err != nil {
		return
	}
	var out bytes.Buffer
	if err := b.Save(&out); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(data[4:]) == fileV2 {
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("%s: Save(Load(f)) differs from the bytes of f it loaded", label)
		}
	} else {
		v2, err := Load(&out)
		if err != nil {
			t.Fatalf("%s: reloading a v1 file saved as v2: %v", label, err)
		}
		sameBuffer(t, label+": v1 file against its v2 reload", v2, b)
	}
	roundTrip(t, b)
}

// repaired returns a copy of a v2 file with its instruction count set
// to what its records hold and its checksum to theirs, or nil when data
// is not a v2 file with its whole body present.
func repaired(data []byte) []byte {
	if len(data) < v2HeaderBytes || binary.LittleEndian.Uint32(data) != fileMagic ||
		binary.LittleEndian.Uint32(data[4:]) != fileV2 {
		return nil
	}
	name := int(binary.LittleEndian.Uint32(data[8:]))
	count := int(binary.LittleEndian.Uint32(data[20:]))
	start := v2HeaderBytes + name
	end := start + 8*count
	if name > maxNameLen || count > len(data) || end+4 > len(data) {
		return nil
	}
	out := slices.Clone(data)
	var n uint64
	for i := start; i < end; i += 8 {
		n += 1 + uint64(Packed(binary.LittleEndian.Uint64(out[i:])).Run())
	}
	binary.LittleEndian.PutUint64(out[12:], n)
	binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[start:end], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// loadPerRecord is a record-at-a-time Load, kept as the oracle for the
// chunked one's results and its exact error text. It reads the version
// and then the rest of that version's header. A v1 file's records, each
// with bits 56-63 clear, are appended one instruction each. A v2 file's
// records are kept as they are after each is checked against the one
// before it; then come the checksum and the instruction count.
func loadPerRecord(r io.Reader) (*Buffer, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:8]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	size := 16 + 8*int(version-1)
	if got, err := io.ReadFull(br, hdr[8:size]); err != nil {
		if got == 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[8:])
	count := binary.LittleEndian.Uint32(hdr[size-4:])
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	b := NewBuffer(string(name))
	var rec [8]byte
	var body []byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		v := binary.LittleEndian.Uint64(rec[:])
		if version == 1 {
			if v>>56 != 0 {
				return nil, fmt.Errorf("trace: record %d: reserved bits 56-63 set (%#016x)", i, v)
			}
			b.Append(Unpack(Packed(v)))
			continue
		}
		pc, run := v&(1<<26-1), v>>56
		if pc+run >= 1<<26 {
			return nil, fmt.Errorf("trace: record %d: run of %d from pc %d passes address %d", i, run, pc, MaxAddress)
		}
		if i > 0 {
			prev := uint64(b.records[i-1])
			end := prev&(1<<26-1) + prev>>56
			if v&(1<<56-1) == pc && prev>>56 < 255 && pc == end+1 {
				return nil, fmt.Errorf("trace: record %d: plain instruction at %d not folded into the run before it", i, pc)
			}
		}
		b.records = append(b.records, Packed(v))
		b.n += 1 + run
		body = append(body, rec[:]...)
	}
	if version == 1 {
		return b, nil
	}
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("trace: reading checksum: %w", err)
	}
	want := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("trace: checksum mismatch: file has %#08x, records hash to %#08x", got, want)
	}
	if n := binary.LittleEndian.Uint64(hdr[12:]); b.n != n {
		return nil, fmt.Errorf("trace: records hold %d instructions, header says %d", b.n, n)
	}
	return b, nil
}

// foldPerRecord folds an instruction stream the long way: a packed
// instruction that is plain, not taken and has target 0, at the PC right
// after the last record's run, joins that run while the run is below
// 255 (its PCs cannot pass MaxAddress: a packed PC never does); anything
// else starts a record.
func foldPerRecord(instrs []cpu.Retired) []Packed {
	var recs []Packed
	for _, r := range instrs {
		p := Pack(r)
		if k := len(recs) - 1; k >= 0 && Unpack(p) == (cpu.Retired{PC: p.PC()}) {
			last := recs[k]
			if last.Run() < 255 && uint64(p.PC()) == uint64(last.PC())+uint64(last.Run())+1 {
				recs[k] = last + 1<<56
				continue
			}
		}
		recs = append(recs, p)
	}
	return recs
}

// savePerRecord is a naive encoder of the v2 file format, one field at
// a time over a Next walk folded by foldPerRecord, kept as the oracle
// for Save's bytes.
func savePerRecord(b *Buffer) []byte {
	var instrs []cpu.Retired
	c := b.Clone()
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		instrs = append(instrs, r)
	}
	recs := foldPerRecord(instrs)
	var out, body []byte
	for _, v := range []uint32{fileMagic, 2, uint32(len(b.Name))} {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(len(instrs)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(recs)))
	out = append(out, b.Name...)
	for _, p := range recs {
		body = binary.LittleEndian.AppendUint64(body, uint64(p))
	}
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// saveV1 encodes b in the v1 format, one record per instruction over a
// Next walk: what Save wrote before v2, kept to make v1 test files.
func saveV1(b *Buffer) []byte {
	var out []byte
	for _, v := range []uint32{fileMagic, 1, uint32(len(b.Name)), uint32(b.Len())} {
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

// runBuffer is a named buffer of exactly records records: random
// control transfers, each followed by a random run of plain
// instructions, 0 to 255 of them.
func runBuffer(name string, records int, seed uint64) *Buffer {
	rng := rand.New(rand.NewPCG(seed, 1))
	b := NewBuffer(name)
	for range records {
		pc := rng.Uint32N(MaxAddress - 255)
		b.Append(cpu.Retired{PC: pc, Target: rng.Uint32N(MaxAddress), Class: isa.ClassCond, Taken: rng.IntN(2) == 0})
		for k := range rng.IntN(256) {
			b.Append(cpu.Retired{PC: pc + 1 + uint32(k)})
		}
	}
	return b
}

// TestFileChunkBoundaries runs Save and Load across record counts on
// both sides of the I/O chunk edges, in both versions: Save's bytes
// equal the naive encoder's, Load restores the buffer from either
// version, and every truncation — header only, mid-name, mid-record, at
// a record boundary, at a chunk edge, and in v2 before and inside the
// checksum — fails with the per-record oracle's exact error.
func TestFileChunkBoundaries(t *testing.T) {
	const name = "chunky"
	for _, n := range []int{0, 1, chunkRecords - 1, chunkRecords, chunkRecords + 1, 3*chunkRecords + 5} {
		for _, v := range []int{fileV1, fileV2} {
			var b *Buffer
			var data []byte
			body := 16 + len(name)
			if v == fileV1 {
				b = randomBuffer(name, n, uint64(n))
				data = saveV1(b)
			} else {
				b = runBuffer(name, n, uint64(n))
				var out bytes.Buffer
				if err := b.Save(&out); err != nil {
					t.Fatal(err)
				}
				data = out.Bytes()
				if !bytes.Equal(data, savePerRecord(b)) {
					t.Fatalf("n=%d: Save bytes differ from the per-record encoding", n)
				}
				body = v2HeaderBytes + len(name)
			}
			if got, err := Load(bytes.NewReader(data)); err != nil {
				t.Fatalf("v%d n=%d: %v", v, n, err)
			} else {
				sameBuffer(t, fmt.Sprintf("v%d n=%d", v, n), got, b)
			}
			checkAgainstOracle(t, fmt.Sprintf("v%d n=%d whole", v, n), data)
			cuts := map[string]int{
				"magic and version": 8,
				"mid-header":        12,
				"header only":       body - len(name),
				"mid-name":          body - len(name)/2,
			}
			if n > 0 {
				cuts["mid-record"] = body + 8*(n/2) + 3
				cuts["record boundary"] = body + 8*(n/2)
				cuts["last byte missing"] = len(data) - 1
			}
			if v == fileV2 {
				cuts["checksum missing"] = body + 8*n
				cuts["mid-checksum"] = body + 8*n + 2
			}
			for k := 1; k*chunkRecords < n; k++ {
				cuts[fmt.Sprintf("chunk edge %d", k)] = body + 8*k*chunkRecords
				cuts[fmt.Sprintf("chunk edge %d+5", k)] = body + 8*k*chunkRecords + 5
			}
			for label, cut := range cuts {
				checkAgainstOracle(t, fmt.Sprintf("v%d n=%d %s (%d of %d bytes)", v, n, label, cut, len(data)), data[:cut])
			}
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
	if _, err := appendHeader(nil, "big", 2*over, int(over)); err == nil || !strings.Contains(err.Error(), "4294967296 records") {
		t.Fatalf("header for %d records: err %v, want a record-count error", over, err)
	}
	if _, err := appendHeader(nil, "big", 2*over, math.MaxUint32); err != nil {
		t.Fatalf("header for 2^32-1 records: %v", err)
	}
}

// TestFileAllocsFixed: Load of either version and Save allocate a fixed
// number of times whatever the record count — the chunked I/O makes no
// per-record or per-chunk allocation, and Load grows its records in a
// reused scratch slice, then copies them out in one allocation. Load's
// body runs with a scratch slice of the test's own: the pool Load takes
// it from keeps nothing for certain (under the race detector it drops
// slices at random by design). The collector is off: now and then a
// collection cycle adds allocations of its own to the count.
func TestFileAllocsFixed(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var s []Packed
	var first [3]float64
	for i, n := range []int{1, chunkRecords + 1, 3*chunkRecords + 5, 1 << 20} {
		b := randomBuffer("allocs", n, 7)
		var out bytes.Buffer
		if err := b.Save(&out); err != nil {
			t.Fatal(err)
		}
		v2, v1 := out.Bytes(), saveV1(b)
		var allocs [3]float64
		for k, data := range [][]byte{v2, v1} {
			allocs[k] = testing.AllocsPerRun(3, func() {
				if _, err := load(bytes.NewReader(data), &s); err != nil {
					t.Fatal(err)
				}
			})
		}
		allocs[2] = testing.AllocsPerRun(3, func() {
			if err := b.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			first = allocs
			continue
		}
		if allocs != first {
			t.Errorf("n=%d: Load v2 %v / Load v1 %v / Save %v allocations, want %v / %v / %v as for one instruction",
				n, allocs[0], allocs[1], allocs[2], first[0], first[1], first[2])
		}
	}
}
