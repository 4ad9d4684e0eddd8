// Package trace provides the dynamic-instruction trace infrastructure
// that connects the functional CPU to the fetch simulator: packed
// retired-instruction records, an in-memory buffer whose read cursor
// every simulator walks (optionally bound to a context for
// cancellation), stream statistics, and a binary file format.
//
// Trace files are read and written in fixed 64 KiB chunks (Load, Save)
// with a fixed number of allocations per call. A file's header record
// count is untrusted: Load reserves at most 1<<20 records up front and
// grows only as records arrive. Save refuses a buffer the format cannot
// carry — a name over 64 KiB or more than 2^32-1 records — before
// writing anything.
package trace

import (
	"context"
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
	return cpu.Retired{PC: p.PC(), Target: p.Target(), Class: p.Class(), Taken: p.Taken()}
}

// The field accessors read one field of a packed record without
// unpacking the others, so a reader walking the records in place
// (Buffer.Rest) pays one load per record.

// PC returns the record's instruction address.
func (p Packed) PC() uint32 { return uint32(p & pcMask) }

// Target returns the record's control-transfer target.
func (p Packed) Target() uint32 { return uint32(p >> targetShift & targetMask) }

// Class returns the record's control-transfer class.
func (p Packed) Class() isa.Class { return isa.Class(p >> classShift & classMask) }

// Taken reports whether the record redirected the stream.
func (p Packed) Taken() bool { return p>>takenShift&1 == 1 }

// PollStride is how many records a reader of a context-bound Buffer
// consumes between cancellation polls (Err). A power of two keeps the
// check a single mask; 4096 records is a few microseconds of
// simulation, so cancellation latency stays well under a millisecond
// without touching the per-record path.
const PollStride = 4096

// Buffer is an in-memory trace and its read cursor: Next walks the
// records one at a time, Rest and Skip let a reader scan the unread
// records in place and then advance past them, Reset rewinds. Clone and
// WithContext give further cursors over the same records.
type Buffer struct {
	Name    string
	records []Packed
	pos     int
	ctx     context.Context // bound by WithContext; nil when unbound
}

// NewBuffer returns an empty buffer with capacity for n records.
func NewBuffer(name string, n int) *Buffer {
	return &Buffer{Name: name, records: make([]Packed, 0, n)}
}

// Append adds a record to the buffer.
func (b *Buffer) Append(r cpu.Retired) { b.records = append(b.records, Pack(r)) }

// Next returns the next record, or ok=false at end of stream. It
// never consults the bound context — readers poll Err every PollStride
// records — so it stays small enough to inline into their loops.
func (b *Buffer) Next() (cpu.Retired, bool) {
	if b.pos >= len(b.records) {
		return cpu.Retired{}, false
	}
	r := Unpack(b.records[b.pos])
	b.pos++
	return r, true
}

// Rest returns the unread records, in order, without advancing the
// cursor. The slice aliases the buffer's records, which are immutable
// once captured: read it, do not write it.
func (b *Buffer) Rest() []Packed { return b.records[b.pos:] }

// Skip advances the cursor past n records; n must not exceed
// len(Rest()).
func (b *Buffer) Skip(n int) { b.pos += n }

// Reset rewinds the cursor to the first record.
func (b *Buffer) Reset() { b.pos = 0 }

// Len returns the number of records in the trace.
func (b *Buffer) Len() uint64 { return uint64(len(b.records)) }

// At returns record i (for tests).
func (b *Buffer) At(i int) cpu.Retired { return Unpack(b.records[i]) }

// Clone returns a new, unbound Buffer sharing the (immutable once
// captured) records with an independent read cursor, so several
// simulations can consume the same trace concurrently.
func (b *Buffer) Clone() *Buffer {
	return &Buffer{Name: b.Name, records: b.records}
}

// WithContext returns a clone bound to ctx: readers stop at their next
// poll once ctx is done, and Err then reports why. A context that can
// never be done (Background, TODO, nil) binds nothing, leaving Err a
// nil check.
func (b *Buffer) WithContext(ctx context.Context) *Buffer {
	c := b.Clone()
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
	}
	return c
}

// Err reports the bound context's error: nil while the walk may go on
// (always nil for an unbound buffer), non-nil once it should stop.
func (b *Buffer) Err() error {
	if b.ctx == nil {
		return nil
	}
	return b.ctx.Err()
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
