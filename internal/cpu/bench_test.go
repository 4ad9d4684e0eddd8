package cpu

import (
	"testing"

	"mbbp/internal/asm"
)

// BenchmarkInterpreter measures raw functional-simulation speed on a
// mixed arithmetic/branch loop (instructions per second in the report).
func BenchmarkInterpreter(b *testing.B) {
	p, err := asm.Assemble("bench", `
.data
seed: .word 12345
acc:  .word 0
.text
main:
    li r20, 0
loop:
    lw r1, seed(r0)
    li r2, 1103515245
    mul r1, r1, r2
    addi r1, r1, 12345
    li r2, 0x7fffffff
    and r1, r1, r2
    sw r1, seed(r0)
    srli r3, r1, 16
    andi r3, r3, 255
    lw r4, acc(r0)
    add r4, r4, r3
    sw r4, acc(r0)
    addi r20, r20, 1
    li r5, 1000000
    blt r20, r5, loop
    halt
`)
	if err != nil {
		b.Fatal(err)
	}
	c := New(p, Config{HeapWords: 1024, RestartOnHalt: true})
	b.ResetTimer()
	n, err := c.Run(uint64(b.N), nil)
	if err != nil {
		b.Fatal(err)
	}
	if n != uint64(b.N) {
		b.Fatalf("executed %d of %d", n, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkRunPlain measures the interpreter as a trace capture drives
// it: RunPlain over each stretch of plain instructions and Step over
// each control transfer, on the mixed loop of BenchmarkInterpreter
// (twelve plain instructions, then a branch).
func BenchmarkRunPlain(b *testing.B) {
	p, err := asm.Assemble("bench", `
.data
seed: .word 12345
acc:  .word 0
.text
main:
    li r20, 0
loop:
    lw r1, seed(r0)
    li r2, 1103515245
    mul r1, r1, r2
    addi r1, r1, 12345
    li r2, 0x7fffffff
    and r1, r1, r2
    sw r1, seed(r0)
    srli r3, r1, 16
    andi r3, r3, 255
    lw r4, acc(r0)
    add r4, r4, r3
    sw r4, acc(r0)
    addi r20, r20, 1
    li r5, 1000000
    blt r20, r5, loop
    halt
`)
	if err != nil {
		b.Fatal(err)
	}
	c := New(p, Config{HeapWords: 1024, RestartOnHalt: true})
	b.ResetTimer()
	for n := uint64(0); n < uint64(b.N); {
		ran, err := c.RunPlain(uint64(b.N) - n)
		if err != nil {
			b.Fatal(err)
		}
		if n += ran; n < uint64(b.N) {
			if _, err := c.Step(); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
