// Package isa defines the mini RISC instruction set executed by the
// functional simulator and observed by the fetch predictors.
//
// The ISA is deliberately small but complete enough to express realistic
// control flow: ALU and ALU-immediate operations, loads and stores,
// floating-point arithmetic, conditional branches, direct and indirect
// jumps, calls, and returns. Instructions are fixed-width and addresses
// are expressed in instruction units (the instruction at address a+1
// immediately follows the instruction at address a), which matches the
// index arithmetic used throughout Wallace & Bagherzadeh (HPCA 1997).
package isa

import "fmt"

// Opcode identifies an operation.
type Opcode uint8

// Opcodes. The groups matter: every opcode below BEQ is plain, BEQ..RET
// are the control transfers and HALT is last, so the interpreter tells a
// plain instruction by one compare (TestOpcodeLayout pins this), and the
// Class method below is the single source of truth for how the fetch
// hardware categorizes an instruction.
const (
	NOP Opcode = iota

	// ALU register-register.
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT  // set if less than (signed)
	SLTU // set if less than (unsigned)
	MUL
	DIV
	REM

	// ALU register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LUI // load upper immediate: rd = imm << 16

	// Memory.
	LW // rd = mem[rs1 + imm]
	SW // mem[rs1 + imm] = rs2

	// Floating point (separate register file f0..f15).
	FADD
	FSUB
	FMUL
	FDIV
	FABS
	FNEG
	FMOV
	FLW  // fd = fmem[rs1 + imm]
	FSW  // fmem[rs1 + imm] = fs2
	FCVT // fd = float64(rs1)
	FCMP // rd = compare(fs1, fs2): -1, 0, 1

	// Control transfers. Keep these contiguous, after every plain
	// opcode and before HALT; the interpreter relies on it.
	BEQ  // branch if rs1 == rs2
	BNE  // branch if rs1 != rs2
	BLT  // branch if rs1 < rs2 (signed)
	BGE  // branch if rs1 >= rs2 (signed)
	BLTZ // branch if rs1 < 0
	BGEZ // branch if rs1 >= 0
	JMP  // unconditional direct jump
	JAL  // call: link register = PC+1, jump to target
	JR   // indirect jump through rs1
	JALR // indirect call through rs1
	RET  // return through the link register

	HALT // stop the program

	numOpcodes
)

// LinkReg is the integer register used as the link register by JAL, JALR
// and RET (by convention, like SPARC %o7 or RISC-V ra).
const LinkReg = 31

// NumIntRegs and NumFPRegs size the register files. Integer register 0 is
// hard-wired to zero.
const (
	NumIntRegs = 32
	NumFPRegs  = 16
)

var opcodeNames = [numOpcodes]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", SLT: "slt", SLTU: "sltu",
	MUL: "mul", DIV: "div", REM: "rem",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SLLI: "slli", SRLI: "srli", SRAI: "srai", SLTI: "slti", LUI: "lui",
	LW: "lw", SW: "sw",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FABS: "fabs", FNEG: "fneg", FMOV: "fmov",
	FLW: "flw", FSW: "fsw", FCVT: "fcvt", FCMP: "fcmp",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	BLTZ: "bltz", BGEZ: "bgez",
	JMP: "jmp", JAL: "jal", JR: "jr", JALR: "jalr", RET: "ret",
	HALT: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op names a defined operation.
func (op Opcode) Valid() bool { return op < numOpcodes }

// Class is the fetch-relevant category of an instruction. It is exactly
// the information a Block Instruction Type (BIT) entry must encode
// (paper Table 1): non-branch, return, conditional branch, or other
// control transfer, with calls and indirect transfers distinguished so
// the return-address stack and target arrays behave correctly.
type Class uint8

const (
	// ClassPlain is any non-control-transfer instruction.
	ClassPlain Class = iota
	// ClassCond is a conditional branch (taken or not).
	ClassCond
	// ClassJump is an unconditional direct jump.
	ClassJump
	// ClassCall is a direct call (pushes the return address).
	ClassCall
	// ClassIndirect is an indirect jump through a register.
	ClassIndirect
	// ClassIndirectCall is an indirect call through a register.
	ClassIndirectCall
	// ClassReturn is a return (pops the return address stack).
	ClassReturn

	// NumClasses counts the classes above.
	NumClasses
)

var classNames = [NumClasses]string{
	ClassPlain:        "plain",
	ClassCond:         "cond",
	ClassJump:         "jump",
	ClassCall:         "call",
	ClassIndirect:     "indirect",
	ClassIndirectCall: "indirect-call",
	ClassReturn:       "return",
}

// String returns a short name for the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsControlTransfer reports whether the class redirects (or may redirect)
// the PC.
func (c Class) IsControlTransfer() bool { return c != ClassPlain }

// IsUnconditional reports whether the class always redirects the PC.
func (c Class) IsUnconditional() bool { return c != ClassPlain && c != ClassCond }

// IsCall reports whether the class pushes a return address.
func (c Class) IsCall() bool { return c == ClassCall || c == ClassIndirectCall }

// IsIndirect reports whether the target comes from a register rather than
// the instruction encoding.
func (c Class) IsIndirect() bool { return c == ClassIndirect || c == ClassIndirectCall }

// Class returns the fetch class of an opcode.
func (op Opcode) Class() Class {
	switch op {
	case BEQ, BNE, BLT, BGE, BLTZ, BGEZ:
		return ClassCond
	case JMP:
		return ClassJump
	case JAL:
		return ClassCall
	case JR:
		return ClassIndirect
	case JALR:
		return ClassIndirectCall
	case RET:
		return ClassReturn
	default:
		return ClassPlain
	}
}

// Inst is one decoded instruction. Programs are stored decoded; there is
// no binary machine encoding because nothing in the reproduced system
// depends on one — the fetch hardware sees only addresses and classes.
type Inst struct {
	Op  Opcode
	Rd  uint8 // destination register (int or FP depending on Op)
	Rs1 uint8 // first source register
	Rs2 uint8 // second source register
	Imm int32 // immediate / branch or jump target (instruction address)
}

// Class returns the fetch class of the instruction.
func (in Inst) Class() Class { return in.Op.Class() }

// String disassembles the instruction.
func (in Inst) String() string {
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case RET:
		return "ret"
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU, MUL, DIV, REM:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case LUI:
		return fmt.Sprintf("lui r%d, %d", in.Rd, in.Imm)
	case LW:
		return fmt.Sprintf("lw r%d, %d(r%d)", in.Rd, in.Imm, in.Rs1)
	case SW:
		return fmt.Sprintf("sw r%d, %d(r%d)", in.Rs2, in.Imm, in.Rs1)
	case FADD, FSUB, FMUL, FDIV:
		return fmt.Sprintf("%s f%d, f%d, f%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case FABS, FNEG, FMOV:
		return fmt.Sprintf("%s f%d, f%d", in.Op, in.Rd, in.Rs1)
	case FLW:
		return fmt.Sprintf("flw f%d, %d(r%d)", in.Rd, in.Imm, in.Rs1)
	case FSW:
		return fmt.Sprintf("fsw f%d, %d(r%d)", in.Rs2, in.Imm, in.Rs1)
	case FCVT:
		return fmt.Sprintf("fcvt f%d, r%d", in.Rd, in.Rs1)
	case FCMP:
		return fmt.Sprintf("fcmp r%d, f%d, f%d", in.Rd, in.Rs1, in.Rs2)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case BLTZ, BGEZ:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rs1, in.Imm)
	case JMP, JAL:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case JR, JALR:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs1)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
}

// Program is an assembled program: code at instruction addresses
// [0, len(Code)), plus initial data memory images.
type Program struct {
	Name    string
	Code    []Inst
	Entry   uint32    // instruction address of the first instruction
	IntData []int64   // initial integer data memory
	FPData  []float64 // initial floating-point data memory
	// Symbols maps code label names to instruction addresses (for
	// diagnostics and tests); DataSymbols maps data labels to word
	// offsets in IntData (used to patch initial data, e.g. workload
	// random seeds).
	Symbols     map[string]uint32
	DataSymbols map[string]uint32
}

// Validate checks structural invariants: entry in range, branch and jump
// targets inside the code, register numbers in range (every field below
// NumIntRegs, and the fields an FP opcode reads or writes as FP registers
// below NumFPRegs). A program that passes cannot make the functional
// simulator index outside its register files.
func (p *Program) Validate() error {
	n := uint32(len(p.Code))
	if n == 0 {
		return fmt.Errorf("isa: program %q has no code", p.Name)
	}
	if p.Entry >= n {
		return fmt.Errorf("isa: program %q entry %d outside code [0,%d)", p.Name, p.Entry, n)
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %q@%d: invalid opcode %d", p.Name, pc, in.Op)
		}
		switch in.Class() {
		case ClassCond, ClassJump, ClassCall:
			if in.Imm < 0 || uint32(in.Imm) >= n {
				return fmt.Errorf("isa: %q@%d: %s target %d outside code [0,%d)",
					p.Name, pc, in.Op, in.Imm, n)
			}
		}
		if in.Rd >= NumIntRegs || in.Rs1 >= NumIntRegs || in.Rs2 >= NumIntRegs {
			return fmt.Errorf("isa: %q@%d: register out of range in %s", p.Name, pc, in)
		}
		if fd, fs1, fs2 := in.Op.fpOperands(); fd && in.Rd >= NumFPRegs ||
			fs1 && in.Rs1 >= NumFPRegs || fs2 && in.Rs2 >= NumFPRegs {
			return fmt.Errorf("isa: %q@%d: FP register out of range in %s", p.Name, pc, in)
		}
	}
	return nil
}

// fpOperands reports which operand fields of op name FP registers
// (f0..f15) rather than integer ones.
func (op Opcode) fpOperands() (rd, rs1, rs2 bool) {
	switch op {
	case FADD, FSUB, FMUL, FDIV:
		return true, true, true
	case FABS, FNEG, FMOV:
		return true, true, false
	case FLW, FCVT:
		return true, false, false
	case FSW:
		return false, false, true
	case FCMP:
		return false, true, true
	}
	return false, false, false
}
