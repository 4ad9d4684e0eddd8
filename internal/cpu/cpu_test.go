package cpu

import (
	"testing"

	"mbbp/internal/asm"
	"mbbp/internal/isa"
)

func runProgram(t *testing.T, src string, fuel uint64) ([]Retired, *CPU) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, Config{HeapWords: 1024, FPHeapWords: 1024})
	var out []Retired
	if _, err := c.Run(fuel, func(r Retired) bool {
		out = append(out, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out, c
}

func TestArithmetic(t *testing.T) {
	// Computes 7*6-2 = 40 into memory word 0 and halts.
	recs, _ := runProgram(t, `
.data
out: .word 0
.text
    li r1, 7
    li r2, 6
    mul r3, r1, r2
    subi r3, r3, 2
    sw r3, out(r0)
    halt
`, 100)
	if len(recs) != 6 {
		t.Fatalf("retired %d instructions, want 6", len(recs))
	}
	for i, r := range recs[:5] {
		if r.PC != uint32(i) {
			t.Errorf("record %d PC = %d", i, r.PC)
		}
	}
}

func TestMemoryReadBack(t *testing.T) {
	recs, _ := runProgram(t, `
.data
a: .word 5
b: .word 0
.text
    lw r1, a(r0)
    slli r1, r1, 2
    sw r1, b(r0)
    lw r2, b(r0)
    bne r1, r2, bad
    halt
bad:
    nop
    halt
`, 100)
	// The bne must not be taken.
	if recs[4].Class != isa.ClassCond || recs[4].Taken {
		t.Errorf("bne record = %+v, want not-taken cond", recs[4])
	}
}

func TestBranchSemantics(t *testing.T) {
	recs, _ := runProgram(t, `
    li r1, -3
    bltz r1, neg
    halt
neg:
    bgez r1, bad
    li r2, 1
    beq r2, r2, done
bad:
    nop
done:
    halt
`, 100)
	// bltz taken -> target recorded.
	if !recs[1].Taken || recs[1].Target != 3 {
		t.Errorf("bltz = %+v", recs[1])
	}
	// bgez not taken, but the encoded target is still reported.
	if recs[2].Taken {
		t.Errorf("bgez should not be taken: %+v", recs[2])
	}
	// beq r2, r2 always taken.
	if !recs[4].Taken {
		t.Errorf("beq equal regs should be taken: %+v", recs[4])
	}
}

func TestCallReturn(t *testing.T) {
	recs, _ := runProgram(t, `
main:
    jal fn
    halt
fn:
    ret
`, 10)
	if recs[0].Class != isa.ClassCall || !recs[0].Taken || recs[0].Target != 2 {
		t.Errorf("jal = %+v", recs[0])
	}
	if recs[1].Class != isa.ClassReturn || recs[1].Target != 1 {
		t.Errorf("ret = %+v", recs[1])
	}
}

func TestIndirectJump(t *testing.T) {
	recs, _ := runProgram(t, `
.data
tbl: .word dest
.text
    lw r1, tbl(r0)
    jr r1
    nop
dest:
    halt
`, 10)
	if recs[1].Class != isa.ClassIndirect || recs[1].Target != 3 {
		t.Errorf("jr = %+v", recs[1])
	}
	if recs[2].PC != 3 {
		t.Errorf("after jr, PC = %d, want 3", recs[2].PC)
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	// beqz compares with r0 itself, so the value goes through r1.
	recs, _ := runProgram(t, `
    li r0, 99
    add r1, r0, r0
    beqz r1, good
    halt
good:
    halt
`, 10)
	if !recs[2].Taken {
		t.Error("write to r0 must be discarded")
	}
}

func TestDivByZeroSemantics(t *testing.T) {
	// RISC-V style: x/0 = -1, x%0 = x. The program branches to ok only
	// if both hold.
	recs, _ := runProgram(t, `
    li r1, 7
    li r2, 0
    div r3, r1, r2
    rem r4, r1, r2
    li r5, -1
    bne r3, r5, bad
    bne r4, r1, bad
    halt
bad:
    halt
`, 20)
	if recs[5].Taken || recs[6].Taken {
		t.Error("div/rem by zero semantics wrong")
	}
}

func TestFloatingPoint(t *testing.T) {
	recs, _ := runProgram(t, `
.fdata
x: .fword 2.0, 3.0
.text
    flw f1, x(r0)
    li r1, 1
    flw f2, x(r1)
    fmul f3, f1, f2
    fadd f3, f3, f1    ; 8.0
    li r2, 8
    fcvt f4, r2
    fcmp r3, f3, f4
    beqz r3, good
    halt
good:
    halt
`, 20)
	if !recs[8].Taken {
		t.Error("fp compute: 2*3+2 should equal 8")
	}
}

func TestFaultOnBadAddress(t *testing.T) {
	p, err := asm.Assemble("t", `
    li r1, 100000000
    lw r2, 0(r1)
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, Config{HeapWords: 16})
	if _, err := c.Run(10, nil); err == nil {
		t.Fatal("out-of-range load should fault")
	}
}

func TestHaltWithoutRestartStops(t *testing.T) {
	p, err := asm.Assemble("t", "nop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, Config{HeapWords: 16})
	n, err := c.Run(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || !c.Halted() {
		t.Errorf("ran %d, halted=%v; want 2, true", n, c.Halted())
	}
	// A second Run is a no-op.
	if n, _ := c.Run(10, nil); n != 0 {
		t.Errorf("post-halt run executed %d instructions", n)
	}
}

func TestRestartOnHaltProducesJumpRecord(t *testing.T) {
	p, err := asm.Assemble("t", "nop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, Config{HeapWords: 16, RestartOnHalt: true})
	var recs []Retired
	if _, err := c.Run(5, func(r Retired) bool {
		recs = append(recs, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records", len(recs))
	}
	// Record 1 is the halt: reported as a taken jump to the entry.
	if recs[1].Class != isa.ClassJump || !recs[1].Taken || recs[1].Target != 0 {
		t.Errorf("halt record = %+v", recs[1])
	}
	if recs[2].PC != 0 {
		t.Errorf("restart PC = %d, want 0", recs[2].PC)
	}
}

func TestRestartResetsMemory(t *testing.T) {
	// The program increments a counter each pass; after a restart the
	// counter must read zero again, so the branch direction repeats.
	recs, _ := runProgram(t, `
.data
c: .word 0
.text
    lw r1, c(r0)
    bnez r1, bad
    addi r1, r1, 1
    sw r1, c(r0)
    halt
bad:
    halt
`, 15)
	for i, r := range recs {
		if r.PC == 1 && r.Taken {
			t.Errorf("record %d: counter persisted across restart", i)
		}
	}
}

func TestSinkCanStopExecution(t *testing.T) {
	p, err := asm.Assemble("t", "nop\nnop\nnop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, Config{HeapWords: 16})
	n := 0
	executed, err := c.Run(100, func(Retired) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 2 {
		t.Errorf("executed %d, want 2 (sink stopped)", executed)
	}
}

func TestStackPointerInitialized(t *testing.T) {
	// sp starts one past the top of memory; a push must not fault.
	recs, _ := runProgram(t, `
    subi sp, sp, 1
    sw ra, 0(sp)
    lw r1, 0(sp)
    addi sp, sp, 1
    halt
`, 10)
	if len(recs) != 5 {
		t.Fatalf("stack ops faulted: %d records", len(recs))
	}
}

// TestRunPlain: RunPlain executes plain instructions only, up to its
// bound, and stops before a control transfer, a HALT or a PC outside the
// code, leaving the machine where Run would have it after the same
// instructions. A fault inside the stretch is Run's fault.
func TestRunPlain(t *testing.T) {
	const src = `
main:
    li r1, 3
    addi r2, r1, 4
    mul r3, r2, r1
    beq r0, r0, next
next:
    addi r4, r3, 1
    halt
`
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, Config{HeapWords: 64})
	steps := []struct {
		max, want uint64
		pc        uint32
	}{
		{2, 2, 2},  // bounded by max
		{10, 1, 3}, // stops before the branch
		{10, 0, 3}, // still at the branch
	}
	for i, s := range steps {
		if n, err := c.RunPlain(s.max); err != nil || n != s.want || c.PC() != s.pc {
			t.Fatalf("step %d: RunPlain(%d) = %d, %v at PC %d; want %d at PC %d", i, s.max, n, err, c.PC(), s.want, s.pc)
		}
	}
	if n, err := c.Run(1, nil); n != 1 || err != nil {
		t.Fatalf("Run(1) over the branch = %d, %v", n, err)
	}
	if n, err := c.RunPlain(10); n != 1 || err != nil || c.PC() != 5 {
		t.Fatalf("RunPlain after the branch = %d, %v at PC %d; want 1 at PC 5, before the halt", n, err, c.PC())
	}
	ref := New(p, Config{HeapWords: 64})
	if _, err := ref.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	if c.regs != ref.regs || c.Executed() != 5 {
		t.Fatalf("after RunPlain: regs %v, executed %d; Run gives %v, 5", c.regs[:5], c.Executed(), ref.regs[:5])
	}
	if n, _ := c.Run(1, nil); n != 1 || !c.Halted() {
		t.Fatal("the halt did not stop the machine")
	}
	if n, err := c.RunPlain(10); n != 0 || err != nil {
		t.Fatalf("RunPlain on a halted machine = %d, %v", n, err)
	}
	if r, err := c.Step(); err == nil || c.Executed() != 6 {
		t.Fatalf("Step on a halted machine = %+v, %v (executed %d); want an error, 6", r, err, c.Executed())
	}

	// A fault inside the stretch reports what Run reports.
	p, err = asm.Assemble("f", "main:\n    li r2, -5\n    lw r3, 0(r2)\n    halt\n")
	if err != nil {
		t.Fatal(err)
	}
	c, ref = New(p, Config{HeapWords: 64}), New(p, Config{HeapWords: 64})
	n, err := c.RunPlain(10)
	_, want := ref.Run(10, nil)
	if n != 1 || err == nil || want == nil || err.Error() != want.Error() || c.Executed() != 1 {
		t.Fatalf("faulting RunPlain = %d, %v (executed %d); want 1, %v", n, err, c.Executed(), want)
	}

	// Running off the end of the code is left to Run to report.
	p, err = asm.Assemble("e", "main:\n    addi r1, r1, 1\n")
	if err != nil {
		t.Fatal(err)
	}
	c = New(p, Config{HeapWords: 64})
	if n, err := c.RunPlain(10); n != 1 || err != nil {
		t.Fatalf("RunPlain to the end of the code = %d, %v; want 1, nil", n, err)
	}
	if _, err := c.Run(1, nil); err == nil {
		t.Fatal("Run past the end of the code did not fault")
	}
}
