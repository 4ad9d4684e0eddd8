package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"testing"

	"mbbp/internal/asm"
	"mbbp/internal/cpu"
	"mbbp/internal/isa"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// TestCaptureReusesCPU: one CPU, reloaded for every capture, gives
// exactly the traces and errors of a fresh CPU per capture, whatever
// ran on it before — programs with other data images, memories larger
// and smaller than the next one's, halted and faulted machines, and
// lengths that stop inside a run.
func TestCaptureReusesCPU(t *testing.T) {
	small := cpu.Config{HeapWords: 64, FPHeapWords: 16}
	var progs []*isa.Program
	for _, name := range []string{"compress", "swim", "li"} {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, src := range []string{
		// In memory at the default size, outside it at small; the
		// branch reads a word before any store, so memory a reused CPU
		// failed to clear changes the trace.
		"main:\n    li r2, 2000\n    lw r3, 0(r2)\n    bnez r3, seen\n    sw r2, 0(r2)\n    flw f1, 0(r2)\n    halt\nseen:\n    halt\n",
		"main:\n    addi r1, r1, 1\n    addi r2, r2, 1\n    halt\n",
	} {
		p, err := asm.Assemble(fmt.Sprintf("asm%d", len(progs)), src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	// Each program runs twice in a row, so the second run starts from
	// the memory the first left; over 30 captures every program meets
	// both configurations after every other program.
	reused := new(cpu.CPU)
	for i := range 30 {
		p := progs[i/2%len(progs)]
		cfg := cpu.DefaultConfig()
		if i%3 == 2 {
			cfg = small
		}
		n := uint64(1 + i*i*97%50_000)
		got, gotErr := trace.CaptureOn(reused, p, cfg, n)
		want, wantErr := trace.CaptureOn(new(cpu.CPU), p, cfg, n)
		label := fmt.Sprintf("capture %d (%s, heap %d, n=%d)", i, p.Name, cfg.HeapWords, n)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v on the reused CPU, %v on a fresh one", label, gotErr, wantErr)
			}
			continue
		}
		sameRecords(t, label, got, want)
	}
}

// BenchmarkCapture captures the whole workload suite, reporting the
// capture cost per instruction.
func BenchmarkCapture(b *testing.B) {
	const n = 200_000
	var progs []*isa.Program
	for _, w := range workload.All() {
		p, err := w.Program()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := trace.Capture(p, cpu.DefaultConfig(), n); err != nil {
				b.Fatal(fmt.Errorf("%s: %w", p.Name, err))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*len(progs)), "ns/instr")
}

// TestV1FileLoads: a v1 trace file, the compress workload at 20k
// instructions as the v1 Save wrote it, still loads, to the records of
// a fresh capture; saved again it becomes a v2 file that reloads to the
// same records.
func TestV1FileLoads(t *testing.T) {
	f, err := os.Open("testdata/compress-20k.v1.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v1, err := trace.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Trace(20_000)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "v1 file", v1, want)

	var v2 bytes.Buffer
	if err := v1.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if version := binary.LittleEndian.Uint32(v2.Bytes()[4:]); version != 2 {
		t.Fatalf("Save wrote version %d, want 2", version)
	}
	back, err := trace.Load(&v2)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "v2 file saved from the v1 file", back, want)
}

// sameRecords requires got to hold want's name, length and records.
func sameRecords(t *testing.T, label string, got, want *trace.Buffer) {
	t.Helper()
	gotRecs, _ := got.Clone().Rest()
	wantRecs, _ := want.Clone().Rest()
	if got.Name != want.Name || got.Len() != want.Len() || !slices.Equal(gotRecs, wantRecs) {
		t.Fatalf("%s: %q with %d instructions in %d records, want %q with %d in %d", label,
			got.Name, got.Len(), len(gotRecs), want.Name, want.Len(), len(wantRecs))
	}
}
