package trace

import (
	"bytes"
	"context"
	"testing"

	"mbbp/internal/cpu"
	"mbbp/internal/isa"
)

// runsFrom decodes an instruction stream from fuzz bytes, two per
// step. The low two bits of the first byte pick the step:
//
//	0: a run of plain instructions at PC+1, ..., (op>>2)<<8 | arg + 1 of
//	   them, so runs far past the 255 one record folds;
//	1: a control transfer of class 1 + arg mod 6, taken when op bit 2
//	   is set (every unconditional transfer is), target 3*arg;
//	2: a plain instruction carrying target arg+1, taken when op bit 2
//	   is set — not foldable, though plain;
//	3: a discontinuity: the next PC jumps by arg+2, or to arg below
//	   MaxAddress when op bit 2 is set, so runs reach the address limit.
//
// The stream ends wherever the bytes do, often inside a run.
func runsFrom(data []byte) []cpu.Retired {
	var out []cpu.Retired
	pc := uint32(100)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		taken := op&4 != 0
		switch op & 3 {
		case 0:
			for range int(op>>2)<<8 | int(arg) + 1 {
				out = append(out, cpu.Retired{PC: pc})
				pc = (pc + 1) & MaxAddress
			}
			continue
		case 1:
			r := cpu.Retired{PC: pc, Class: isa.Class(1 + int(arg)%6), Target: 3 * uint32(arg)}
			r.Taken = taken || r.Class != isa.ClassCond
			out = append(out, r)
		case 2:
			out = append(out, cpu.Retired{PC: pc, Target: uint32(arg) + 1, Taken: taken})
		case 3:
			if taken {
				pc = MaxAddress - uint32(arg)
			} else {
				pc = (pc + uint32(arg) + 2) & MaxAddress
			}
			out = append(out, cpu.Retired{PC: pc})
		}
		if last := out[len(out)-1]; last.Taken {
			pc = last.Target
		} else {
			pc = (pc + 1) & MaxAddress
		}
	}
	return out
}

// FuzzTraceRuns: a buffer built by Append reproduces its input exactly
// through every per-instruction view — Len, a full Next walk, At,
// Collect's statistics, and
// the cursors of Clone, WithContext and Reset taken while the original
// stands inside a run — folds every run it can, and round-trips through
// the file format. Seed inputs live under testdata/fuzz/FuzzTraceRuns.
func FuzzTraceRuns(f *testing.F) {
	f.Add([]byte{0, 9, 1, 0, 0, 3})
	f.Add([]byte{4, 44, 6, 7, 0, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := runsFrom(data)
		b := NewBuffer("runs")
		for _, r := range want {
			b.Append(r)
		}
		if b.Len() != uint64(len(want)) {
			t.Fatalf("Len %d, appended %d", b.Len(), len(want))
		}
		checkFolded(t, b)
		if got, want := Collect(b.Clone()), collectPerInstruction(want); got != want {
			t.Fatalf("Collect = %+v, per instruction %+v", got, want)
		}
		checkWalk(t, "Next", b, want)
		for i := 0; i < len(want); i += 1 + len(want)/512 {
			if got := b.At(i); got != want[i] {
				t.Fatalf("At(%d) = %+v, want %+v", i, got, want[i])
			}
		}

		// Cursors taken with the original stopped mid-stream, inside a
		// run whenever the stream has one.
		b.Reset()
		k := len(want) / 2
		for range k {
			b.Next()
		}
		if k < len(want) {
			recs, off := b.Rest()
			if off > recs[0].Run() || recs[0].PC()+uint32(off) != want[k].PC {
				t.Fatalf("Rest after %d Next: record PC %d run %d at offset %d, want instruction PC %d",
					k, recs[0].PC(), recs[0].Run(), off, want[k].PC)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		checkWalk(t, "Clone", b.Clone(), want)
		checkWalk(t, "WithContext", b.WithContext(ctx), want)
		checkWalk(t, "the original", b, want[k:])
		b.Reset()
		checkWalk(t, "Reset", b, want)

		var file bytes.Buffer
		if err := b.Save(&file); err != nil {
			t.Fatal(err)
		}
		if file.Len() != v2HeaderBytes+len(b.Name)+8*len(b.records)+4 {
			t.Fatalf("saved %d bytes for %d instructions in %d records", file.Len(), len(want), len(b.records))
		}
		got, err := Load(&file)
		if err != nil {
			t.Fatal(err)
		}
		checkWalk(t, "Load(Save)", got, want)
	})
}

// checkWalk reads c with Next to the end and requires exactly want.
func checkWalk(t *testing.T, label string, c *Buffer, want []cpu.Retired) {
	t.Helper()
	for i, w := range want {
		if r, ok := c.Next(); !ok || r != w {
			t.Fatalf("%s: instruction %d = %+v (ok %v), want %+v", label, i, r, ok, w)
		}
	}
	if r, ok := c.Next(); ok {
		t.Fatalf("%s: instruction %+v past the %d appended", label, r, len(want))
	}
}

// checkFolded requires every record to be one Append could not fold
// into the record before it: that one's run is full, or it is not the
// plain instruction right after that run.
func checkFolded(t *testing.T, b *Buffer) {
	t.Helper()
	for i := 1; i < len(b.records); i++ {
		prev, p := b.records[i-1], b.records[i]
		if prev.Run() < 255 && Unpack(p) == (cpu.Retired{PC: prev.PC() + uint32(prev.Run()) + 1}) {
			t.Fatalf("record %d (%#x) could have folded into record %d (%#x)", i, uint64(p), i-1, uint64(prev))
		}
	}
}

// collectPerInstruction is Collect one instruction at a time, the
// oracle for its walk over the stored records.
func collectPerInstruction(instrs []cpu.Retired) Stats {
	var s Stats
	for _, r := range instrs {
		s.Instructions++
		s.ByClass[r.Class]++
		if r.Class == isa.ClassCond && r.Taken {
			s.CondTaken++
		}
		if r.Taken {
			s.Redirects++
		}
		if r.Class.IsControlTransfer() {
			s.BasicBlocks++
		}
	}
	return s
}

// TestFoldRoom pins the fold rule: a run takes the plain instructions
// right after it, up to 255 in all and never past MaxAddress, which
// only a capture of code that long could reach.
func TestFoldRoom(t *testing.T) {
	cond := Pack(cpu.Retired{PC: 100, Target: 7, Class: isa.ClassCond})
	for _, c := range []struct {
		p    Packed
		pc   uint32
		want int
	}{
		{cond, 101, 255},
		{cond, 102, 0}, // not the next PC
		{cond, 100, 0},
		{cond + 200<<runShift, 301, 55},
		{cond + 255<<runShift, 356, 0}, // full
		{PlainAt(MaxAddress - 3), MaxAddress - 2, 3},
		{PlainAt(MaxAddress-3) + 2<<runShift, MaxAddress, 1},
		{PlainAt(MaxAddress-3) + 3<<runShift, MaxAddress + 1, 0},
	} {
		if got := c.p.room(c.pc); got != c.want {
			t.Errorf("record pc %d run %d: room(%d) = %d, want %d", c.p.PC(), c.p.Run(), c.pc, got, c.want)
		}
	}
}
