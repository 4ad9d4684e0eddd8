package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"mbbp/internal/asm"
	"mbbp/internal/cpu"
	"mbbp/internal/isa"
)

// Property: Pack/Unpack round-trips any in-range record.
func TestPackRoundTrip(t *testing.T) {
	f := func(pc, target uint32, class uint8, taken bool) bool {
		r := cpu.Retired{
			PC:     pc % (MaxAddress + 1),
			Target: target % (MaxAddress + 1),
			Class:  isa.Class(class % uint8(isa.NumClasses)),
			Taken:  taken,
		}
		return Unpack(Pack(r)) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferSourceSemantics(t *testing.T) {
	b := NewBuffer("x")
	for i := uint32(0); i < 4; i++ {
		b.Append(cpu.Retired{PC: i})
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := uint32(0); i < 4; i++ {
		r, ok := b.Next()
		if !ok || r.PC != i {
			t.Fatalf("Next %d = %+v, %v", i, r, ok)
		}
	}
	if _, ok := b.Next(); ok {
		t.Error("Next past end should report false")
	}
	b.Reset()
	if r, ok := b.Next(); !ok || r.PC != 0 {
		t.Error("Reset should rewind")
	}
	// The four plain instructions fold into one record with a run of
	// three. Rest is the unread records in place and the offset of the
	// next instruction in the first one's run; Skip moves the cursor
	// within and past runs and Next carries on after.
	if rest, off := b.Rest(); len(rest) != 1 || rest[0].PC() != 0 || rest[0].Run() != 3 || off != 1 {
		t.Fatalf("Rest after one Next = %v, %d; want the one record, run 3, at offset 1", rest, off)
	}
	b.Skip(0, 3)
	if r, ok := b.Next(); !ok || r.PC != 3 {
		t.Errorf("Next after Skip(0, 3) = %+v, %v; want instruction 3", r, ok)
	}
	if rest, off := b.Rest(); len(rest) != 0 || off != 0 {
		t.Errorf("Rest at end = %v, %d; want empty at 0", rest, off)
	}
	b.Reset()
	b.Skip(1, 0)
	if _, ok := b.Next(); ok {
		t.Error("Next after Skip past the last record should report false")
	}
}

const loopSrc = `
main:
    li r1, 5
loop:
    subi r1, r1, 1
    bnez r1, loop
    jal fn
    halt
fn:
    ret
`

func TestCaptureAndStats(t *testing.T) {
	p, err := asm.Assemble("loop", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capture(p, cpu.Config{HeapWords: 64, RestartOnHalt: true}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 100 {
		t.Fatalf("captured %d, want 100", b.Len())
	}
	s := Collect(b)
	if s.Instructions != 100 {
		t.Errorf("stats instructions = %d", s.Instructions)
	}
	if s.CondBranches() == 0 || s.ByClass[isa.ClassCall] == 0 || s.ByClass[isa.ClassReturn] == 0 {
		t.Errorf("class counts missing: %v", s.ByClass)
	}
	if s.CondTakenRate() <= 0.5 {
		t.Errorf("loop branch taken rate = %.2f, want > 0.5", s.CondTakenRate())
	}
	if s.MeanBasicBlock() <= 1 {
		t.Errorf("mean basic block = %.2f", s.MeanBasicBlock())
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := NewBuffer("roundtrip")
	b.Append(cpu.Retired{PC: 1, Target: 2, Class: isa.ClassCond, Taken: true})
	b.Append(cpu.Retired{PC: 2, Class: isa.ClassPlain})
	b.Append(cpu.Retired{PC: 3, Target: 0, Class: isa.ClassReturn, Taken: true})

	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "roundtrip" || got.Len() != 3 {
		t.Fatalf("loaded name=%q len=%d", got.Name, got.Len())
	}
	for i := 0; i < 3; i++ {
		if got.At(i) != b.At(i) {
			t.Errorf("record %d: %+v vs %+v", i, got.At(i), b.At(i))
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage should not load")
	}
	var buf bytes.Buffer
	b := NewBuffer("x")
	b.Append(cpu.Retired{PC: 1})
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate the record payload.
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file should not load")
	}
}
