package isa

import (
	"strings"
	"testing"
)

func TestOpcodeClasses(t *testing.T) {
	cases := []struct {
		op   Opcode
		want Class
	}{
		{ADD, ClassPlain},
		{LW, ClassPlain},
		{FADD, ClassPlain},
		{NOP, ClassPlain},
		{HALT, ClassPlain},
		{BEQ, ClassCond},
		{BNE, ClassCond},
		{BLT, ClassCond},
		{BGE, ClassCond},
		{BLTZ, ClassCond},
		{BGEZ, ClassCond},
		{JMP, ClassJump},
		{JAL, ClassCall},
		{JR, ClassIndirect},
		{JALR, ClassIndirectCall},
		{RET, ClassReturn},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%v.Class() = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if ClassPlain.IsControlTransfer() {
		t.Error("plain is not a control transfer")
	}
	for _, c := range []Class{ClassCond, ClassJump, ClassCall, ClassIndirect, ClassIndirectCall, ClassReturn} {
		if !c.IsControlTransfer() {
			t.Errorf("%v should be a control transfer", c)
		}
	}
	if ClassCond.IsUnconditional() {
		t.Error("conditional is not unconditional")
	}
	if !ClassJump.IsUnconditional() || !ClassReturn.IsUnconditional() {
		t.Error("jump and return are unconditional")
	}
	if !ClassCall.IsCall() || !ClassIndirectCall.IsCall() || ClassJump.IsCall() {
		t.Error("call predicate wrong")
	}
	if !ClassIndirect.IsIndirect() || !ClassIndirectCall.IsIndirect() || ClassCall.IsIndirect() {
		t.Error("indirect predicate wrong")
	}
}

func TestEveryOpcodeHasName(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if Opcode(200).Valid() {
		t.Error("opcode 200 should be invalid")
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: ADDI, Rd: 1, Rs1: 0, Imm: -5}, "addi r1, r0, -5"},
		{Inst{Op: LW, Rd: 4, Rs1: 2, Imm: 8}, "lw r4, 8(r2)"},
		{Inst{Op: SW, Rs2: 4, Rs1: 2, Imm: 8}, "sw r4, 8(r2)"},
		{Inst{Op: BEQ, Rs1: 1, Rs2: 2, Imm: 100}, "beq r1, r2, 100"},
		{Inst{Op: JMP, Imm: 7}, "jmp 7"},
		{Inst{Op: JAL, Rd: LinkReg, Imm: 7}, "jal 7"},
		{Inst{Op: RET, Rs1: LinkReg}, "ret"},
		{Inst{Op: FADD, Rd: 1, Rs1: 2, Rs2: 3}, "fadd f1, f2, f3"},
		{Inst{Op: FLW, Rd: 1, Rs1: 2, Imm: 4}, "flw f1, 4(r2)"},
		{Inst{Op: FCMP, Rd: 3, Rs1: 1, Rs2: 2}, "fcmp r3, f1, f2"},
		{Inst{Op: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

func TestProgramValidate(t *testing.T) {
	ok := &Program{
		Name: "ok",
		Code: []Inst{{Op: ADDI, Rd: 1, Imm: 1}, {Op: BEQ, Imm: 0}, {Op: HALT}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	bad := []*Program{
		{Name: "empty"},
		{Name: "entry", Code: []Inst{{Op: NOP}}, Entry: 5},
		{Name: "target", Code: []Inst{{Op: JMP, Imm: 99}}},
		{Name: "negtarget", Code: []Inst{{Op: BEQ, Imm: -1}}},
		{Name: "reg", Code: []Inst{{Op: ADD, Rd: 40}}},
		{Name: "fp-rd", Code: []Inst{{Op: FADD, Rd: 20, Rs1: 1, Rs2: 2}, {Op: HALT}}},
		{Name: "fp-rs1", Code: []Inst{{Op: FMOV, Rd: 1, Rs1: 16}}},
		{Name: "fp-rs2", Code: []Inst{{Op: FSW, Rs1: 1, Rs2: 31}}},
		{Name: "fcmp", Code: []Inst{{Op: FCMP, Rd: 1, Rs1: 2, Rs2: 16}}},
		{Name: "flw", Code: []Inst{{Op: FLW, Rd: 16, Rs1: 2}}},
		{Name: "fcvt", Code: []Inst{{Op: FCVT, Rd: 16, Rs1: 2}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("program %q should fail validation", p.Name)
		}
	}

	// Integer fields of FP opcodes take the whole integer file.
	intFields := &Program{Name: "int-fields", Code: []Inst{
		{Op: FLW, Rd: 15, Rs1: 31},
		{Op: FSW, Rs1: 31, Rs2: 15},
		{Op: FCVT, Rd: 15, Rs1: 31},
		{Op: FCMP, Rd: 31, Rs1: 15, Rs2: 15},
		{Op: HALT},
	}}
	if err := intFields.Validate(); err != nil {
		t.Errorf("integer fields of FP opcodes rejected: %v", err)
	}
}

// TestOpcodeLayout pins the opcode order the interpreter's dispatch
// relies on: every opcode below BEQ is plain, BEQ through RET are the
// control transfers, and HALT is the last opcode.
func TestOpcodeLayout(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		transfer := op.Class().IsControlTransfer()
		switch {
		case op < BEQ && transfer:
			t.Errorf("%v is below BEQ but a control transfer", op)
		case op >= BEQ && op <= RET && !transfer:
			t.Errorf("%v lies in BEQ..RET but is not a control transfer", op)
		}
	}
	if last := numOpcodes - 1; last != HALT {
		t.Errorf("last opcode is %v, want halt", last)
	}
	if next := RET + 1; next != HALT {
		t.Errorf("the opcode after ret is %v, want halt", next)
	}
	if HALT.Class() != ClassPlain {
		t.Errorf("HALT class = %v, want plain (the CPU reports it as a jump)", HALT.Class())
	}
}
