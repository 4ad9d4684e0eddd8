package cpu

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mbbp/internal/isa"
)

// fuzzProgram decodes fuzz bytes into a short valid program, its
// configuration, a fuel and the RunPlain limits a capture-style driver
// cycles through:
//
//	data[0]   bit 0: RestartOnHalt
//	data[1]   fuel = 1 + 4*data[1]
//	data[2]   code length 1 + data[2]%48
//	then 5 bytes per instruction: opcode (mod the opcode count), rd,
//	rs1, rs2 (mod 32, or mod 16 for FP opcodes) and an immediate byte;
//	the rest are RunPlain limits, 1 + byte%16 each.
//
// A branch or direct jump's immediate is a target inside the code; a
// memory access's lands inside, at the top edge or below the 1024-word
// memories, so offsets in and out of range both occur; the data words
// are small integers, so loads feed indirect jumps targets both inside
// and outside the code.
func fuzzProgram(data []byte) (*isa.Program, Config, uint64, []uint64) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	cfg := Config{RestartOnHalt: at(0)&1 == 1}
	fuel := 1 + 4*uint64(at(1))
	n := 1 + int(at(2))%48
	p := &isa.Program{Name: "fuzz", Code: make([]isa.Inst, n), FPData: []float64{1.5, -2, 0, 0.25}}
	for i := range 8 {
		p.IntData = append(p.IntData, int64(i*7%(n+3)))
	}
	for i := range p.Code {
		b := func(k int) byte { return at(3 + 5*i + k) }
		op := isa.Opcode(b(0) % byte(isa.HALT+1))
		regs := byte(isa.NumIntRegs)
		if op >= isa.FADD && op <= isa.FCMP {
			regs = isa.NumFPRegs
		}
		in := isa.Inst{Op: op, Rd: b(1) % regs, Rs1: b(2) % regs, Rs2: b(3) % regs}
		e := b(4)
		switch {
		case op >= isa.BEQ && op <= isa.JAL:
			in.Imm = int32(e) % int32(n)
		case op == isa.LW || op == isa.SW || op == isa.FLW || op == isa.FSW:
			switch k := int32(e & 63); e >> 6 {
			case 0:
				in.Imm = k
			case 1:
				in.Imm = 1024 - 32 + k
			case 2:
				in.Imm = -1 - k
			default:
				in.Imm = k << 4
			}
		default:
			in.Imm = int32(int8(e))
		}
		p.Code[i] = in
	}
	var limits []uint64
	for _, l := range data[min(len(data), 3+5*n):] {
		limits = append(limits, 1+uint64(l%16))
	}
	if len(limits) == 0 {
		limits = []uint64{fuel}
	}
	return p, cfg, fuel, limits
}

// runCapture drives c as trace capture does — RunPlain over plain
// stretches, bounded by the limits in turn, and Step over everything
// else — for up to fuel instructions, returning every retired record
// and the error that stopped it.
func runCapture(c *CPU, fuel uint64, limits []uint64) ([]Retired, error) {
	var out []Retired
	for i := 0; uint64(len(out)) < fuel && !c.Halted(); i++ {
		limit := min(limits[i%len(limits)], fuel-uint64(len(out)))
		pc := c.PC()
		ran, err := c.RunPlain(limit)
		for k := range uint32(ran) {
			out = append(out, Retired{PC: pc + k})
		}
		if err != nil {
			return out, err
		}
		if ran == limit {
			continue
		}
		r, err := c.Step()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// sameMachine reports how the CPU's architectural state differs from
// the reference's, or "" when it does not. FP values compare by bits, so
// NaNs compare too.
func sameMachine(c *CPU, ref *refCPU) string {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	switch {
	case c.pc != ref.pc:
		return fmt.Sprintf("pc %d, reference %d", c.pc, ref.pc)
	case c.executed != ref.executed:
		return fmt.Sprintf("executed %d, reference %d", c.executed, ref.executed)
	case c.halted != ref.halted:
		return fmt.Sprintf("halted %v, reference %v", c.halted, ref.halted)
	case c.regs != ref.regs:
		return fmt.Sprintf("registers %v, reference %v", c.regs, ref.regs)
	case !slices.Equal(bits(c.fpr[:]), bits(ref.fpr[:])):
		return fmt.Sprintf("FP registers %v, reference %v", c.fpr, ref.fpr)
	case !slices.Equal(c.mem, ref.mem):
		return "memory differs"
	case !slices.Equal(bits(c.fmem), bits(ref.fmem)):
		return "FP memory differs"
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzInterpreter compares the production interpreter with the
// reference one over short valid programs built from the fuzz bytes
// (fuzzProgram): every opcode, memory offsets in and out of range,
// indirect targets inside and outside the code, HALT with and without
// RestartOnHalt. Three drivers run each program on fresh CPUs —
// capture-style RunPlain/Step, Run with a sink, and Run without one —
// and each must match the reference's retired stream (the sink-free Run
// its count), registers, memory, PC, executed count, halt and exact
// error text. A fourth run reuses the first CPU through Load.
func FuzzInterpreter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, cfg, fuel, limits := fuzzProgram(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("built an invalid program: %v", err)
		}
		ref := newRef(p, cfg)
		var want []Retired
		wantN, wantErr := ref.run(fuel, func(r Retired) bool {
			want = append(want, r)
			return true
		})

		check := func(label string, c *CPU, n uint64, got []Retired, err error) {
			t.Helper()
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s: error %q, reference %q", label, errText(err), errText(wantErr))
			}
			if n != wantN {
				t.Fatalf("%s: ran %d, reference %d", label, n, wantN)
			}
			if got != nil && !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("%s: %d records differ from the reference's %d at %d", label, len(got), len(want), i)
			}
			if d := sameMachine(c, ref); d != "" {
				t.Fatalf("%s: %s", label, d)
			}
		}

		c := New(p, cfg)
		got, err := runCapture(c, fuel, limits)
		check("RunPlain/Step", c, uint64(len(got)), got, err)

		sunk := []Retired{}
		c2 := New(p, cfg)
		n, err := c2.Run(fuel, func(r Retired) bool {
			sunk = append(sunk, r)
			return true
		})
		check("Run with a sink", c2, n, sunk, err)

		c3 := New(p, cfg)
		n, err = c3.Run(fuel, nil)
		check("Run without a sink", c3, n, nil, err)

		c.Load(p, cfg)
		got, err = runCapture(c, fuel, limits)
		check("RunPlain/Step after Load", c, uint64(len(got)), got, err)
	})
}
