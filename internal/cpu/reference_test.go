package cpu

import (
	"fmt"

	"mbbp/internal/isa"
)

// refCPU is the reference interpreter: the instruction-at-a-time
// machine this package was before RunPlain and Step, kept as the oracle
// the production interpreter is compared against (FuzzInterpreter, the
// capture tests). It shares no execution code with them: one switch per
// instruction, a closure per register write, a setReg branch for r0 and
// a signed two-sided compare per memory access.
type refCPU struct {
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

func newRef(p *isa.Program, cfg Config) *refCPU {
	c := &refCPU{prog: p, cfg: cfg}
	c.reset()
	return c
}

// reset restores the initial architectural state, allocating fresh
// memory every time.
func (c *refCPU) reset() {
	c.pc = c.prog.Entry
	c.regs = [isa.NumIntRegs]int64{}
	c.fpr = [isa.NumFPRegs]float64{}
	memWords := len(c.prog.IntData) + c.cfg.HeapWords
	if memWords < 1024 {
		memWords = 1024
	}
	c.mem = make([]int64, memWords)
	copy(c.mem, c.prog.IntData)
	fmemWords := len(c.prog.FPData) + c.cfg.FPHeapWords
	if fmemWords < 1024 {
		fmemWords = 1024
	}
	c.fmem = make([]float64, fmemWords)
	copy(c.fmem, c.prog.FPData)
	c.regs[30] = int64(memWords)
	c.halted = false
}

// run is Run, one step per instruction.
func (c *refCPU) run(fuel uint64, sink Sink) (uint64, error) {
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
				if sink != nil {
					sink(r)
				}
				return n, nil
			}
			c.reset()
		}
		if sink != nil && !sink(r) {
			return n, nil
		}
	}
	return n, nil
}

// RunReference runs program p under cfg on the reference interpreter
// for up to n instructions, streaming each retired record to sink, as
// New(p, cfg).Run(n, sink) does; for the capture tests of the external
// test package.
func RunReference(p *isa.Program, cfg Config, n uint64, sink Sink) (uint64, error) {
	return newRef(p, cfg).run(n, sink)
}

// step executes one instruction, returning its retired record.
func (c *refCPU) step(in isa.Inst) (Retired, error) {
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
func (c *refCPU) setReg(rd uint8, v int64) {
	if rd != 0 {
		c.regs[rd] = v
	}
}

// exec carries out the effect of the plain (non-control-transfer)
// instruction at the PC, without moving the PC.
func (c *refCPU) exec(in isa.Inst) error {
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
		rd(refBool(rs1 < rs2))
	case isa.SLTU:
		rd(refBool(uint64(rs1) < uint64(rs2)))
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
		rd(refBool(rs1 < int64(in.Imm)))
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

func (c *refCPU) faultf(pc uint32, format string, args ...any) error {
	return fmt.Errorf("cpu: %s@%d: %s", c.prog.Name, pc, fmt.Sprintf(format, args...))
}

func refBool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
