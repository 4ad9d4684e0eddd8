package trace

import (
	"mbbp/internal/cpu"
	"mbbp/internal/isa"
)

// RecordsCap returns the capacity of b's backing records, for the
// footprint test in the external test package.
func RecordsCap(b *Buffer) int { return cap(b.records) }

// CaptureOn is Capture on the given CPU instead of a pooled one, for
// the CPU reuse test.
func CaptureOn(c *cpu.CPU, p *isa.Program, cfg cpu.Config, n uint64) (*Buffer, error) {
	c.Load(p, cfg)
	return capture(c, p.Name, n)
}
