// Package cpu is a functional (instruction-accurate, not timed)
// simulator for the mini RISC ISA. It plays the role Shade played in the
// paper: it executes a program and streams the retired-instruction
// records that drive the trace-based fetch simulation.
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
	c := &CPU{prog: p, cfg: cfg}
	c.Reset()
	return c
}

// Reset restores the initial architectural state: registers zero, sp at
// the top of memory, data memory re-initialized from the program image.
func (c *CPU) Reset() {
	c.pc = c.prog.Entry
	c.regs = [isa.NumIntRegs]int64{}
	c.fpr = [isa.NumFPRegs]float64{}
	memWords := len(c.prog.IntData) + c.cfg.HeapWords
	if memWords < 1024 {
		memWords = 1024
	}
	if c.mem == nil || len(c.mem) != memWords {
		c.mem = make([]int64, memWords)
	} else {
		clear(c.mem)
	}
	copy(c.mem, c.prog.IntData)
	fmemWords := len(c.prog.FPData) + c.cfg.FPHeapWords
	if fmemWords < 1024 {
		fmemWords = 1024
	}
	if c.fmem == nil || len(c.fmem) != fmemWords {
		c.fmem = make([]float64, fmemWords)
	} else {
		for i := range c.fmem {
			c.fmem[i] = 0
		}
	}
	copy(c.fmem, c.prog.FPData)
	c.regs[30] = int64(memWords) // sp: stack grows down from the top
	c.halted = false
}

// Executed returns the number of instructions retired since creation.
func (c *CPU) Executed() uint64 { return c.executed }

// Halted reports whether the program has executed HALT (and
// RestartOnHalt is false).
func (c *CPU) Halted() bool { return c.halted }

// Run executes up to fuel instructions, streaming each retired
// instruction to sink. It returns the number executed in this call.
// Execution stops early when the sink returns false, when the program
// halts (unless RestartOnHalt), or on a machine fault (bad PC, bad
// memory address), which is reported as an error since the workload
// programs are supposed to be correct.
func (c *CPU) Run(fuel uint64, sink Sink) (uint64, error) {
	if c.halted {
		return 0, nil
	}
	code := c.prog.Code
	n := uint64(0)
	for n < fuel {
		if int(c.pc) >= len(code) {
			return n, fmt.Errorf("cpu: %s: pc %d outside code [0,%d)", c.prog.Name, c.pc, len(code))
		}
		in := code[c.pc]
		r, err := c.step(in)
		if err != nil {
			return n, err
		}
		n++
		c.executed++
		if in.Op == isa.HALT {
			if !c.cfg.RestartOnHalt {
				c.halted = true
				if sink != nil && !sink(r) {
					return n, nil
				}
				return n, nil
			}
			c.Reset()
			// A restart behaves like an unconditional jump back to
			// the entry point, which is what the record already says.
		}
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
// lies outside the code (Run retires or reports that one), does nothing
// once the program has halted, and stops at a machine fault, which it
// reports as Run does.
func (c *CPU) RunPlain(limit uint64) (uint64, error) {
	if c.halted {
		return 0, nil
	}
	code := c.prog.Code
	n := uint64(0)
	var err error
	for ; n < limit && int(c.pc) < len(code); n++ {
		in := code[c.pc]
		if in.Op.Class() != isa.ClassPlain || in.Op == isa.HALT {
			break
		}
		if err = c.exec(in); err != nil {
			break
		}
		c.pc++
	}
	c.executed += n
	return n, err
}

// PC returns the address of the next instruction to execute.
func (c *CPU) PC() uint32 { return c.pc }

// step executes one instruction, returning its retired record.
func (c *CPU) step(in isa.Inst) (Retired, error) {
	pc := c.pc
	next := pc + 1
	rec := Retired{PC: pc, Class: in.Class()}
	rs1 := c.regs[in.Rs1]
	rs2 := c.regs[in.Rs2]

	switch in.Op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTZ, isa.BGEZ:
		taken := false
		switch in.Op {
		case isa.BEQ:
			taken = rs1 == rs2
		case isa.BNE:
			taken = rs1 != rs2
		case isa.BLT:
			taken = rs1 < rs2
		case isa.BGE:
			taken = rs1 >= rs2
		case isa.BLTZ:
			taken = rs1 < 0
		case isa.BGEZ:
			taken = rs1 >= 0
		}
		rec.Taken = taken
		rec.Target = uint32(in.Imm)
		if taken {
			next = uint32(in.Imm)
		}
	case isa.JMP:
		rec.Taken = true
		rec.Target = uint32(in.Imm)
		next = uint32(in.Imm)
	case isa.JAL:
		c.setReg(in.Rd, int64(pc)+1)
		rec.Taken = true
		rec.Target = uint32(in.Imm)
		next = uint32(in.Imm)
	case isa.JR, isa.JALR, isa.RET:
		t := uint32(rs1)
		if rs1 < 0 || int(t) >= len(c.prog.Code) {
			return rec, c.faultf(pc, "%s target %d outside code [0,%d)", in.Op, rs1, len(c.prog.Code))
		}
		if in.Op == isa.JALR {
			c.setReg(in.Rd, int64(pc)+1)
		}
		rec.Taken = true
		rec.Target = t
		next = t
	case isa.HALT:
		// Treated by Run as a redirect to the entry point (restart)
		// or the end of execution. The retired record reports it as an
		// unconditional jump so the fetch simulator sees a well-formed
		// stream (a plain instruction never redirects).
		rec.Class = isa.ClassJump
		rec.Taken = true
		rec.Target = c.prog.Entry
	default:
		// A plain instruction: its record is the PC alone.
		if err := c.exec(in); err != nil {
			return rec, err
		}
	}
	c.pc = next
	return rec, nil
}

// setReg writes integer register rd; writes to r0 are discarded.
func (c *CPU) setReg(rd uint8, v int64) {
	if rd != 0 {
		c.regs[rd] = v
	}
}

// exec carries out the effect of the plain (non-control-transfer)
// instruction at the PC, without moving the PC.
func (c *CPU) exec(in isa.Inst) error {
	rd := func(v int64) { c.setReg(in.Rd, v) }
	rs1 := c.regs[in.Rs1]
	rs2 := c.regs[in.Rs2]

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		rd(rs1 + rs2)
	case isa.SUB:
		rd(rs1 - rs2)
	case isa.AND:
		rd(rs1 & rs2)
	case isa.OR:
		rd(rs1 | rs2)
	case isa.XOR:
		rd(rs1 ^ rs2)
	case isa.SLL:
		rd(rs1 << (uint64(rs2) & 63))
	case isa.SRL:
		rd(int64(uint64(rs1) >> (uint64(rs2) & 63)))
	case isa.SRA:
		rd(rs1 >> (uint64(rs2) & 63))
	case isa.SLT:
		rd(boolToInt(rs1 < rs2))
	case isa.SLTU:
		rd(boolToInt(uint64(rs1) < uint64(rs2)))
	case isa.MUL:
		rd(rs1 * rs2)
	case isa.DIV:
		if rs2 == 0 {
			rd(-1) // RISC-V-style no-trap semantics
		} else {
			rd(rs1 / rs2)
		}
	case isa.REM:
		if rs2 == 0 {
			rd(rs1)
		} else {
			rd(rs1 % rs2)
		}
	case isa.ADDI:
		rd(rs1 + int64(in.Imm))
	case isa.ANDI:
		rd(rs1 & int64(in.Imm))
	case isa.ORI:
		rd(rs1 | int64(in.Imm))
	case isa.XORI:
		rd(rs1 ^ int64(in.Imm))
	case isa.SLLI:
		rd(rs1 << (uint64(in.Imm) & 63))
	case isa.SRLI:
		rd(int64(uint64(rs1) >> (uint64(in.Imm) & 63)))
	case isa.SRAI:
		rd(rs1 >> (uint64(in.Imm) & 63))
	case isa.SLTI:
		rd(boolToInt(rs1 < int64(in.Imm)))
	case isa.LUI:
		rd(int64(in.Imm) << 16)
	case isa.LW:
		addr := rs1 + int64(in.Imm)
		if addr < 0 || addr >= int64(len(c.mem)) {
			return c.faultf(c.pc, "lw address %d outside memory [0,%d)", addr, len(c.mem))
		}
		rd(c.mem[addr])
	case isa.SW:
		addr := rs1 + int64(in.Imm)
		if addr < 0 || addr >= int64(len(c.mem)) {
			return c.faultf(c.pc, "sw address %d outside memory [0,%d)", addr, len(c.mem))
		}
		c.mem[addr] = rs2
	case isa.FADD:
		c.fpr[in.Rd] = c.fpr[in.Rs1] + c.fpr[in.Rs2]
	case isa.FSUB:
		c.fpr[in.Rd] = c.fpr[in.Rs1] - c.fpr[in.Rs2]
	case isa.FMUL:
		c.fpr[in.Rd] = c.fpr[in.Rs1] * c.fpr[in.Rs2]
	case isa.FDIV:
		c.fpr[in.Rd] = c.fpr[in.Rs1] / c.fpr[in.Rs2]
	case isa.FABS:
		v := c.fpr[in.Rs1]
		if v < 0 {
			v = -v
		}
		c.fpr[in.Rd] = v
	case isa.FNEG:
		c.fpr[in.Rd] = -c.fpr[in.Rs1]
	case isa.FMOV:
		c.fpr[in.Rd] = c.fpr[in.Rs1]
	case isa.FLW:
		addr := rs1 + int64(in.Imm)
		if addr < 0 || addr >= int64(len(c.fmem)) {
			return c.faultf(c.pc, "flw address %d outside fp memory [0,%d)", addr, len(c.fmem))
		}
		c.fpr[in.Rd] = c.fmem[addr]
	case isa.FSW:
		addr := rs1 + int64(in.Imm)
		if addr < 0 || addr >= int64(len(c.fmem)) {
			return c.faultf(c.pc, "fsw address %d outside fp memory [0,%d)", addr, len(c.fmem))
		}
		c.fmem[addr] = c.fpr[in.Rs2]
	case isa.FCVT:
		c.fpr[in.Rd] = float64(rs1)
	case isa.FCMP:
		a, b := c.fpr[in.Rs1], c.fpr[in.Rs2]
		switch {
		case a < b:
			rd(-1)
		case a > b:
			rd(1)
		default:
			rd(0)
		}
	default:
		return c.faultf(c.pc, "unimplemented opcode %v", in.Op)
	}
	return nil
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
