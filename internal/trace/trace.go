// Package trace provides the dynamic-instruction trace infrastructure
// that connects the functional CPU to the fetch simulator: packed
// retired-instruction records, an in-memory buffer, streaming sources,
// stream statistics, and a binary file format.
//
// Trace files are read and written in fixed 64 KiB chunks (Load, Save)
// with a fixed number of allocations per call. A file's header record
// count is untrusted: Load reserves at most 1<<20 records up front and
// grows only as records arrive. Save refuses a buffer the format cannot
// carry — a name over 64 KiB or more than 2^32-1 records — before
// writing anything.
package trace

import (
	"fmt"

	"mbbp/internal/cpu"
	"mbbp/internal/isa"
)

// Record packing: pc(26) | target(26) | class(3) | taken(1), LSB first.
// 26 bits of instruction address is far beyond anything the workload
// programs need (they are tens of kilobytes of code).
const (
	pcBits     = 26
	targetBits = 26
	classBits  = 3

	pcMask     = 1<<pcBits - 1
	targetMask = 1<<targetBits - 1
	classMask  = 1<<classBits - 1

	targetShift = pcBits
	classShift  = pcBits + targetBits
	takenShift  = classShift + classBits
)

// MaxAddress is the largest instruction address a packed record can hold.
const MaxAddress = pcMask

// Packed is one retired instruction in packed form.
type Packed uint64

// Pack converts a retired record to packed form. Addresses above
// MaxAddress are truncated, which never happens for the built-in
// workloads (their code is tiny); Unpack is the exact inverse within
// range.
func Pack(r cpu.Retired) Packed {
	v := uint64(r.PC&pcMask) |
		uint64(r.Target&targetMask)<<targetShift |
		uint64(r.Class&classMask)<<classShift
	if r.Taken {
		v |= 1 << takenShift
	}
	return Packed(v)
}

// Unpack converts a packed record back to a retired record.
func Unpack(p Packed) cpu.Retired {
	return cpu.Retired{
		PC:     uint32(p & pcMask),
		Target: uint32(p >> targetShift & targetMask),
		Class:  isa.Class(p >> classShift & classMask),
		Taken:  p>>takenShift&1 == 1,
	}
}

// Named is implemented by sources that know which program produced
// them; engines use it to label their Result. Wrapping sources (e.g.
// WithContext) forward it.
type Named interface {
	// TraceName returns the program name of the trace.
	TraceName() string
}

// Source yields a stream of retired instructions. Reset rewinds the
// stream to the beginning so one trace can drive many simulator
// configurations.
type Source interface {
	// Next returns the next record, or ok=false at end of stream.
	Next() (cpu.Retired, bool)
	// Reset rewinds to the beginning of the stream.
	Reset()
	// Len returns the total number of records in the stream, if known
	// (0 if unknown).
	Len() uint64
}

// Buffer is an in-memory trace; it implements Source.
type Buffer struct {
	Name    string
	records []Packed
	pos     int
}

// NewBuffer returns an empty buffer with capacity for n records.
func NewBuffer(name string, n int) *Buffer {
	return &Buffer{Name: name, records: make([]Packed, 0, n)}
}

// Append adds a record to the buffer.
func (b *Buffer) Append(r cpu.Retired) { b.records = append(b.records, Pack(r)) }

// Next implements Source.
func (b *Buffer) Next() (cpu.Retired, bool) {
	if b.pos >= len(b.records) {
		return cpu.Retired{}, false
	}
	r := Unpack(b.records[b.pos])
	b.pos++
	return r, true
}

// Reset implements Source.
func (b *Buffer) Reset() { b.pos = 0 }

// Len implements Source.
func (b *Buffer) Len() uint64 { return uint64(len(b.records)) }

// At returns record i (for tests).
func (b *Buffer) At(i int) cpu.Retired { return Unpack(b.records[i]) }

// TraceName implements Named.
func (b *Buffer) TraceName() string { return b.Name }

// Clone returns a new Buffer sharing the (immutable once captured)
// records with an independent read cursor, so several simulations can
// consume the same trace concurrently.
func (b *Buffer) Clone() *Buffer {
	return &Buffer{Name: b.Name, records: b.records}
}

// Capture runs the program for n instructions and returns the buffered
// trace.
func Capture(p *isa.Program, cfg cpu.Config, n uint64) (*Buffer, error) {
	c := cpu.New(p, cfg)
	b := NewBuffer(p.Name, int(n))
	executed, err := c.Run(n, func(r cpu.Retired) bool {
		b.Append(r)
		return true
	})
	if err != nil {
		return nil, err
	}
	if executed < n && !cfg.RestartOnHalt {
		// Short traces are fine; the caller asked for at most n.
		return b, nil
	}
	if executed < n {
		return nil, fmt.Errorf("trace: %s: got %d of %d instructions", p.Name, executed, n)
	}
	return b, nil
}

// Live is a Source that regenerates the trace by re-executing the
// program on every Reset. It trades CPU time for memory and is useful
// for very long runs.
type Live struct {
	prog *isa.Program
	cfg  cpu.Config
	n    uint64

	c    *cpu.CPU
	done uint64
	cur  cpu.Retired
	have bool
	err  error
}

// NewLive returns a live source that yields exactly n records per pass.
func NewLive(p *isa.Program, cfg cpu.Config, n uint64) *Live {
	l := &Live{prog: p, cfg: cfg, n: n}
	l.Reset()
	return l
}

// Err returns the first execution error, if any. A Live source ends its
// stream early on error; callers that care should check Err after
// draining.
func (l *Live) Err() error { return l.err }

// Next implements Source.
func (l *Live) Next() (cpu.Retired, bool) {
	if l.err != nil || l.done >= l.n {
		return cpu.Retired{}, false
	}
	// Run the CPU one instruction at a time through a 1-record window.
	// The closure capture below is the hot path; it stays allocation
	// free.
	l.have = false
	_, err := l.c.Run(1, func(r cpu.Retired) bool {
		l.cur = r
		l.have = true
		return true
	})
	if err != nil {
		l.err = err
		return cpu.Retired{}, false
	}
	if !l.have {
		return cpu.Retired{}, false
	}
	l.done++
	return l.cur, true
}

// Reset implements Source.
func (l *Live) Reset() {
	l.c = cpu.New(l.prog, l.cfg)
	l.done = 0
	l.err = nil
}

// Len implements Source.
func (l *Live) Len() uint64 { return l.n }
