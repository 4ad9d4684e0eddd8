// Package cpu is a functional (instruction-accurate, not timed)
// simulator for the mini RISC ISA. It plays the role Shade played in the
// paper: it executes a program and streams the retired-instruction
// records that drive the trace-based fetch simulation.
//
// The interpreter is two primitives, and each opcode's semantics is
// written once, in one of them. RunPlain is the dispatch loop for plain
// instructions: it keeps the PC, the memory slices and the register
// files' addresses in locals, tells a plain instruction by opcode range
// alone (every opcode below isa.BEQ; the control transfers and HALT are
// the contiguous tail, which isa's TestOpcodeLayout pins), executes each
// in one switch, writes r0 without a branch (store, then re-zero) and
// checks each memory access with one unsigned compare. Step executes
// any one instruction — in practice a control transfer or HALT, as a
// plain one goes through RunPlain — and returns its record without a
// sink. Run, which streams every retired record to a sink, is built on
// the two; trace.Capture calls them directly, folding each RunPlain
// stretch into a run-length record, and reuses CPUs across captures
// (Load keeps the memory arrays when they are large enough).
//
// Register numbers index the register files directly: a program must
// pass isa.Program.Validate, which bounds every integer field and every
// FP operand field, before it runs.
//
// The instruction-at-a-time interpreter this package used to be lives
// on as the reference in reference_test.go; FuzzInterpreter and the
// capture tests compare against it.
package cpu

import (
	"fmt"

	"mbbp/internal/isa"
)

// Retired describes one retired instruction as the fetch simulator
// observes it.
type Retired struct {
	PC     uint32    // instruction address
	Target uint32    // actual next PC for redirecting transfers; encoded target for not-taken conditionals
	Class  isa.Class // fetch class
	Taken  bool      // true when the instruction redirected the PC
}

// Redirects reports whether the instruction changed the PC away from
// PC+1.
func (r Retired) Redirects() bool { return r.Taken }

// Sink consumes retired instructions. Returning false stops execution.
type Sink func(Retired) bool

// Config adjusts the execution environment.
type Config struct {
	// HeapWords is extra integer memory above the program's static
	// data. The stack lives at the top of this region.
	HeapWords int
	// FPHeapWords is extra floating-point memory above the program's
	// static FP data.
	FPHeapWords int
	// RestartOnHalt re-enters the program (with fresh architectural
	// state) when it halts before the fuel runs out, so any program
	// can source an arbitrarily long trace.
	RestartOnHalt bool
}

// DefaultConfig returns the configuration used by the workload suite.
func DefaultConfig() Config {
	return Config{HeapWords: 1 << 16, FPHeapWords: 1 << 15, RestartOnHalt: true}
}

// CPU executes a single program.
type CPU struct {
	prog *isa.Program
	cfg  Config

	pc   uint32
	regs [isa.NumIntRegs]int64
	fpr  [isa.NumFPRegs]float64
	mem  []int64
	fmem []float64

	executed uint64
	halted   bool
}

// New creates a CPU for the program. The program must have been
// validated (the assembler does this).
func New(p *isa.Program, cfg Config) *CPU {
	c := new(CPU)
	c.Load(p, cfg)
	return c
}

// Load makes c a CPU for program p under cfg, as New would create it,
// executed count zero, but keeping c's memory arrays when their capacity
// suffices: a CPU reused across runs allocates once for the largest.
func (c *CPU) Load(p *isa.Program, cfg Config) {
	c.prog, c.cfg, c.executed = p, cfg, 0
	c.Reset()
}

// Reset restores the initial architectural state: registers zero, sp at
// the top of memory, data memory re-initialized from the program image.
func (c *CPU) Reset() {
	c.pc = c.prog.Entry
	c.regs = [isa.NumIntRegs]int64{}
	c.fpr = [isa.NumFPRegs]float64{}
	memWords := max(len(c.prog.IntData)+c.cfg.HeapWords, 1024)
	c.mem = zeroed(c.mem, memWords)
	copy(c.mem, c.prog.IntData)
	c.fmem = zeroed(c.fmem, max(len(c.prog.FPData)+c.cfg.FPHeapWords, 1024))
	copy(c.fmem, c.prog.FPData)
	c.regs[30] = int64(memWords) // sp: stack grows down from the top
	c.halted = false
}

// zeroed returns n zero words, in s's array when its capacity suffices.
func zeroed[T int64 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Executed returns the number of instructions retired since creation
// (or the last Load).
func (c *CPU) Executed() uint64 { return c.executed }

// Halted reports whether the program has executed HALT (and
// RestartOnHalt is false).
func (c *CPU) Halted() bool { return c.halted }

// PC returns the address of the next instruction to execute.
func (c *CPU) PC() uint32 { return c.pc }

// Run executes up to fuel instructions, streaming each retired
// instruction to sink. It returns the number executed in this call.
// Execution stops early when the sink returns false, when the program
// halts (unless RestartOnHalt), or on a machine fault (bad PC, bad
// memory address), which is reported as an error since the workload
// programs are supposed to be correct. Without a sink, plain stretches
// run in RunPlain; with one, every instruction is a Step.
func (c *CPU) Run(fuel uint64, sink Sink) (uint64, error) {
	n := uint64(0)
	for n < fuel && !c.halted {
		if sink == nil {
			ran, err := c.RunPlain(fuel - n)
			if n += ran; err != nil || n == fuel {
				return n, err
			}
		}
		r, err := c.Step()
		if err != nil {
			return n, err
		}
		n++
		if sink != nil && !sink(r) {
			return n, nil
		}
	}
	return n, nil
}

// RunPlain executes consecutive plain instructions — neither control
// transfers nor HALT — up to limit of them, and returns how many it ran.
// Each one retires as the not-taken plain record at its PC, so none is
// built: a caller knows them all from PC before the call and the count.
// It stops before the first instruction that is not plain or whose PC
// lies outside the code (Step retires or reports that one), does
// nothing once the program has halted, and stops at a machine fault,
// which it returns, the faulting instruction not counted.
//
// This loop is the only definition of the plain opcodes' semantics.
func (c *CPU) RunPlain(limit uint64) (uint64, error) {
	if c.halted {
		return 0, nil
	}
	code, mem, fmem := c.prog.Code, c.mem, c.fmem
	r, f := &c.regs, &c.fpr
	pc := c.pc
	n := uint64(0)
	var err error
loop:
	for ; n < limit && int(pc) < len(code); n++ {
		in := code[pc]
		if in.Op >= isa.BEQ {
			break
		}
		switch in.Op {
		case isa.NOP:
		case isa.ADD:
			r[in.Rd] = r[in.Rs1] + r[in.Rs2]
		case isa.SUB:
			r[in.Rd] = r[in.Rs1] - r[in.Rs2]
		case isa.AND:
			r[in.Rd] = r[in.Rs1] & r[in.Rs2]
		case isa.OR:
			r[in.Rd] = r[in.Rs1] | r[in.Rs2]
		case isa.XOR:
			r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
		case isa.SLL:
			r[in.Rd] = r[in.Rs1] << (uint64(r[in.Rs2]) & 63)
		case isa.SRL:
			r[in.Rd] = int64(uint64(r[in.Rs1]) >> (uint64(r[in.Rs2]) & 63))
		case isa.SRA:
			r[in.Rd] = r[in.Rs1] >> (uint64(r[in.Rs2]) & 63)
		case isa.SLT:
			r[in.Rd] = boolToInt(r[in.Rs1] < r[in.Rs2])
		case isa.SLTU:
			r[in.Rd] = boolToInt(uint64(r[in.Rs1]) < uint64(r[in.Rs2]))
		case isa.MUL:
			r[in.Rd] = r[in.Rs1] * r[in.Rs2]
		case isa.DIV:
			if d := r[in.Rs2]; d == 0 {
				r[in.Rd] = -1 // RISC-V-style no-trap semantics
			} else {
				r[in.Rd] = r[in.Rs1] / d
			}
		case isa.REM:
			if d := r[in.Rs2]; d != 0 {
				r[in.Rd] = r[in.Rs1] % d
			} else {
				r[in.Rd] = r[in.Rs1]
			}
		case isa.ADDI:
			r[in.Rd] = r[in.Rs1] + int64(in.Imm)
		case isa.ANDI:
			r[in.Rd] = r[in.Rs1] & int64(in.Imm)
		case isa.ORI:
			r[in.Rd] = r[in.Rs1] | int64(in.Imm)
		case isa.XORI:
			r[in.Rd] = r[in.Rs1] ^ int64(in.Imm)
		case isa.SLLI:
			r[in.Rd] = r[in.Rs1] << (uint64(in.Imm) & 63)
		case isa.SRLI:
			r[in.Rd] = int64(uint64(r[in.Rs1]) >> (uint64(in.Imm) & 63))
		case isa.SRAI:
			r[in.Rd] = r[in.Rs1] >> (uint64(in.Imm) & 63)
		case isa.SLTI:
			r[in.Rd] = boolToInt(r[in.Rs1] < int64(in.Imm))
		case isa.LUI:
			r[in.Rd] = int64(in.Imm) << 16
		case isa.LW:
			a := r[in.Rs1] + int64(in.Imm)
			if uint64(a) >= uint64(len(mem)) {
				err = c.faultf(pc, "lw address %d outside memory [0,%d)", a, len(mem))
				break loop
			}
			r[in.Rd] = mem[a]
		case isa.SW:
			a := r[in.Rs1] + int64(in.Imm)
			if uint64(a) >= uint64(len(mem)) {
				err = c.faultf(pc, "sw address %d outside memory [0,%d)", a, len(mem))
				break loop
			}
			mem[a] = r[in.Rs2]
		case isa.FADD:
			f[in.Rd] = f[in.Rs1] + f[in.Rs2]
		case isa.FSUB:
			f[in.Rd] = f[in.Rs1] - f[in.Rs2]
		case isa.FMUL:
			f[in.Rd] = f[in.Rs1] * f[in.Rs2]
		case isa.FDIV:
			f[in.Rd] = f[in.Rs1] / f[in.Rs2]
		case isa.FABS:
			v := f[in.Rs1]
			if v < 0 {
				v = -v
			}
			f[in.Rd] = v
		case isa.FNEG:
			f[in.Rd] = -f[in.Rs1]
		case isa.FMOV:
			f[in.Rd] = f[in.Rs1]
		case isa.FLW:
			a := r[in.Rs1] + int64(in.Imm)
			if uint64(a) >= uint64(len(fmem)) {
				err = c.faultf(pc, "flw address %d outside fp memory [0,%d)", a, len(fmem))
				break loop
			}
			f[in.Rd] = fmem[a]
		case isa.FSW:
			a := r[in.Rs1] + int64(in.Imm)
			if uint64(a) >= uint64(len(fmem)) {
				err = c.faultf(pc, "fsw address %d outside fp memory [0,%d)", a, len(fmem))
				break loop
			}
			fmem[a] = f[in.Rs2]
		case isa.FCVT:
			f[in.Rd] = float64(r[in.Rs1])
		case isa.FCMP:
			a, b := f[in.Rs1], f[in.Rs2]
			v := int64(0)
			if a < b {
				v = -1
			} else if a > b {
				v = 1
			}
			r[in.Rd] = v
		}
		r[0] = 0 // r0 is hard-wired: whatever an instruction wrote there is discarded
		pc++
	}
	c.pc = pc
	c.executed += n
	return n, err
}

// Step executes the instruction at the PC, whatever its kind, and
// returns its retired record. A conditional branch's record carries its
// encoded target taken or not; HALT's is a taken jump to the entry
// point, after which the CPU restarts (RestartOnHalt) or halts. A plain
// instruction runs through RunPlain. Step reports a PC outside the code,
// an indirect target outside it, a machine fault or a halted CPU as an
// error, retiring nothing.
//
// This is the only definition of the control transfers' and HALT's
// semantics.
func (c *CPU) Step() (Retired, error) {
	if c.halted {
		return Retired{}, fmt.Errorf("cpu: %s: halted", c.prog.Name)
	}
	pc, code := c.pc, c.prog.Code
	if int(pc) >= len(code) {
		return Retired{}, fmt.Errorf("cpu: %s: pc %d outside code [0,%d)", c.prog.Name, pc, len(code))
	}
	in := code[pc]
	if in.Op < isa.BEQ {
		_, err := c.RunPlain(1)
		return Retired{PC: pc}, err
	}
	r := &c.regs
	rec := Retired{PC: pc, Target: uint32(in.Imm), Class: in.Op.Class(), Taken: true}
	switch in.Op {
	case isa.BEQ:
		rec.Taken = r[in.Rs1] == r[in.Rs2]
	case isa.BNE:
		rec.Taken = r[in.Rs1] != r[in.Rs2]
	case isa.BLT:
		rec.Taken = r[in.Rs1] < r[in.Rs2]
	case isa.BGE:
		rec.Taken = r[in.Rs1] >= r[in.Rs2]
	case isa.BLTZ:
		rec.Taken = r[in.Rs1] < 0
	case isa.BGEZ:
		rec.Taken = r[in.Rs1] >= 0
	case isa.JMP:
	case isa.JAL:
		r[in.Rd] = int64(pc) + 1
		r[0] = 0
	case isa.JR, isa.JALR, isa.RET:
		// The target is the register's low 32 bits; a negative value
		// faults.
		t := r[in.Rs1]
		if t < 0 || int(uint32(t)) >= len(code) {
			return Retired{}, c.faultf(pc, "%s target %d outside code [0,%d)", in.Op, t, len(code))
		}
		if in.Op == isa.JALR {
			r[in.Rd] = int64(pc) + 1
			r[0] = 0
		}
		rec.Target = uint32(t)
	case isa.HALT:
		// The record is an unconditional jump to the entry point, so the
		// fetch simulator sees a well-formed stream (a plain instruction
		// never redirects) whether the program restarts there or stops.
		c.executed++
		if c.cfg.RestartOnHalt {
			c.Reset()
		} else {
			c.pc, c.halted = pc+1, true
		}
		return Retired{PC: pc, Target: c.prog.Entry, Class: isa.ClassJump, Taken: true}, nil
	default:
		return Retired{}, c.faultf(pc, "unimplemented opcode %v", in.Op)
	}
	c.executed++
	c.pc = pc + 1
	if rec.Taken {
		c.pc = rec.Target
	}
	return rec, nil
}

func (c *CPU) faultf(pc uint32, format string, args ...any) error {
	return fmt.Errorf("cpu: %s@%d: %s", c.prog.Name, pc, fmt.Sprintf(format, args...))
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
