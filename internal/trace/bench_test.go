package trace

import (
	"bytes"
	"io"
	"testing"

	"mbbp/internal/cpu"
	"mbbp/internal/isa"
)

func BenchmarkPackUnpack(b *testing.B) {
	r := cpu.Retired{PC: 12345, Target: 678, Class: isa.ClassCond, Taken: true}
	for i := 0; i < b.N; i++ {
		r = Unpack(Pack(r))
	}
	if r.PC != 12345 {
		b.Fatal("corrupted")
	}
}

func BenchmarkBufferIteration(b *testing.B) {
	buf := NewBuffer("bench")
	for i := 0; i < 4096; i++ {
		buf.Append(cpu.Retired{PC: uint32(i), Class: isa.ClassPlain})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		for {
			if _, ok := buf.Next(); !ok {
				break
			}
		}
	}
	b.SetBytes(4096 * 8)
}

// benchFileRecords sizes the file benchmarks: one million instructions
// (about 525k records after folding), the scale of a saved workload
// trace. Throughput counts 8 bytes per instruction, what a v1 file took.
const benchFileRecords = 1 << 20

func BenchmarkSave(b *testing.B) {
	buf := randomBuffer("bench", benchFileRecords, 1)
	b.SetBytes(8 * benchFileRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoad(b *testing.B) {
	var file bytes.Buffer
	if err := randomBuffer("bench", benchFileRecords, 1).Save(&file); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * benchFileRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(file.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
