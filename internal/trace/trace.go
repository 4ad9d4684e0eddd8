// Package trace provides the dynamic-instruction trace infrastructure
// that connects the functional CPU to the fetch simulator: packed
// retired-instruction records, an in-memory buffer whose read cursor
// every simulator walks (optionally bound to a context for
// cancellation), stream statistics, and a binary file format.
//
// A record packs one instruction into bits 0-55 of a uint64: pc(26) |
// target(26) | class(3) | taken(1), LSB first (Pack). A Buffer stores
// its trace run-length encoded: a plain instruction — class plain, not
// taken, target 0 — at the previous instruction's PC + 1 is not stored
// but counted in bits 56-63 of the last stored record (its run, at most
// 255), so the records left are the control transfers, the
// discontinuities and whatever breaks a run. Next re-creates every
// folded instruction exactly; Len, At, Reset, Clone and WithContext
// count instructions, not records. Rest and Skip expose the cursor as
// what it is, a record index plus an offset into that record's run, so
// block formation steps over a whole run at once.
//
// Capture builds a trace at the same granularity: the CPU executes each
// stretch of plain instructions in one call (cpu.RunPlain) and a run
// grows by its count — the last record's when the stretch continues it,
// a new plain record's otherwise — and each control transfer or HALT is
// one cpu.Step whose record is appended. One fold rule (Packed.room)
// decides every fold, in Append, Capture and Load.
//
// Trace files (Save, Load) hold the records as they are: a v2 file is a
// header (magic, version, name length, instruction count, record count),
// the name, the 8-byte records and a CRC-32C of the record bytes, read
// and written in fixed 64 KiB chunks. Load takes a v2 file's records in
// place once they pass the checks that make each trace's encoding
// unique — no run past MaxAddress, no record the run before it would
// have folded, runs summing to the instruction count, the checksum —
// and still reads v1 files, one record per instruction, folding them
// as Append does. A file's header record count is untrusted: Load
// reserves nothing from it and grows the records only as they arrive.
// Save refuses a buffer the format cannot carry — a name over 64 KiB
// or more than 2^32-1 records — before writing anything.
package trace

import (
	"context"
	"fmt"
	"sync"

	"mbbp/internal/cpu"
	"mbbp/internal/isa"
)

// Record packing: pc(26) | target(26) | class(3) | taken(1), LSB first,
// then a buffer's run count in bits 56-63. 26 bits of instruction
// address is far beyond anything the workload programs need (they are
// tens of kilobytes of code).
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
	runShift    = takenShift + 1

	// maxRun is the most plain instructions one record folds.
	maxRun = 1<<(64-runShift) - 1
)

// MaxAddress is the largest instruction address a packed record can hold.
const MaxAddress = pcMask

// Packed is one retired instruction in packed form. In a Buffer, bits
// 56-63 also count the plain instructions folded after it (Run).
type Packed uint64

// Pack converts a retired record to packed form, filling bits 0-55
// only (its run is 0). Addresses above MaxAddress are truncated, which
// never happens for the built-in workloads (their code is tiny); Unpack
// is the exact inverse within range.
func Pack(r cpu.Retired) Packed {
	v := uint64(r.PC&pcMask) |
		uint64(r.Target&targetMask)<<targetShift |
		uint64(r.Class&classMask)<<classShift
	if r.Taken {
		v |= 1 << takenShift
	}
	return Packed(v)
}

// Unpack converts a packed record back to a retired record; the run is
// not part of it.
func Unpack(p Packed) cpu.Retired {
	return cpu.Retired{PC: p.PC(), Target: p.Target(), Class: p.Class(), Taken: p.Taken()}
}

// The field accessors read one field of a packed record without
// unpacking the others, so a reader walking the records in place
// (Buffer.Rest) pays one load per record. None of them reads the run.

// PC returns the record's instruction address.
func (p Packed) PC() uint32 { return uint32(p & pcMask) }

// Target returns the record's control-transfer target.
func (p Packed) Target() uint32 { return uint32(p >> targetShift & targetMask) }

// Class returns the record's control-transfer class.
func (p Packed) Class() isa.Class { return isa.Class(p >> classShift & classMask) }

// Taken reports whether the record redirected the stream.
func (p Packed) Taken() bool { return p>>takenShift&1 == 1 }

// Run returns how many plain instructions, at PC()+1, PC()+2 and so on,
// a buffer folded after the record.
func (p Packed) Run() int { return int(p >> runShift) }

// PlainAt returns the record of the plain instruction at pc: what every
// folded instruction of a run expands to.
func PlainAt(pc uint32) Packed { return Packed(pc) }

// PollStride is how many instructions a reader of a context-bound
// Buffer consumes between cancellation polls (Err). A power of two
// keeps the check a single mask; 4096 instructions is a few
// microseconds of simulation, so cancellation latency stays well under
// a millisecond without touching the per-record path.
const PollStride = 4096

// Buffer is an in-memory trace and its read cursor: Next walks the
// instructions one at a time, Rest and Skip let a reader scan the
// unread records in place and then advance past them, Reset rewinds.
// Clone and WithContext give further cursors over the same records.
//
// The records are run-length encoded (see the package comment); the
// cursor is a record index and an offset into that record's run: off 0
// is the record's own instruction, off k its k-th folded plain one.
type Buffer struct {
	Name    string
	records []Packed
	n       uint64          // instructions, folded ones included
	pos     int             // record holding the next instruction
	off     int             // offset of the next instruction in records[pos]'s run, 0..Run
	ctx     context.Context // bound by WithContext; nil when unbound
}

// NewBuffer returns an empty buffer. Its records grow as instructions
// are appended: a trace keeps about one record in four, so a capacity
// reserved for every instruction would mostly stay unused (Capture and
// Load grow theirs in a reused scratch slice instead).
func NewBuffer(name string) *Buffer { return &Buffer{Name: name} }

// Append adds an instruction to the buffer, folding it into the last
// record's run when it is plain at the previous instruction's PC + 1.
func (b *Buffer) Append(r cpu.Retired) { b.add(Pack(r)) }

// add appends p, whose bits 56-63 are clear, or counts it in the last
// record's run instead when p is a plain record the run has room for. A
// fold stores only the last record, not the slice: a pointer store pays
// the collector's write barrier, and captures run while the collector
// is busy.
func (b *Buffer) add(p Packed) {
	b.n++
	if k := len(b.records) - 1; k >= 0 && p < 1<<pcBits && b.records[k].room(p.PC()) > 0 {
		b.records[k] += 1 << runShift
		return
	}
	b.records = append(b.records, p)
}

// room is the fold rule: how many plain instructions, the first at pc,
// the run of record p can still take. None unless pc directly follows
// the run; at most as many as keep the run within maxRun and its PCs
// within MaxAddress (PCs do not wrap). add, Capture and Load's
// canonical-form check all fold by it.
func (p Packed) room(pc uint32) int {
	end := p.PC() + uint32(p.Run())
	if pc != end+1 {
		return 0
	}
	return min(maxRun-p.Run(), MaxAddress-int(end))
}

// Next returns the next instruction, or ok=false at end of stream,
// expanding a folded one into its plain record. It never consults the
// bound context: readers poll Err every PollStride instructions.
func (b *Buffer) Next() (cpu.Retired, bool) {
	if b.pos >= len(b.records) {
		return cpu.Retired{}, false
	}
	p, off := b.records[b.pos], b.off
	if off == p.Run() {
		b.pos, b.off = b.pos+1, 0
	} else {
		b.off++
	}
	if off == 0 {
		return Unpack(p), true
	}
	return cpu.Retired{PC: p.PC() + uint32(off)}, true
}

// Rest returns the unread records in place, without advancing the
// cursor, and the offset of the next instruction in the first one's
// run: 0 when that record's own instruction is next, k > 0 when its
// k-th folded plain instruction is (at recs[0].PC()+k). The slice
// aliases the buffer's records, which are immutable once captured:
// read it, do not write it.
func (b *Buffer) Rest() (recs []Packed, off int) { return b.records[b.pos:], b.off }

// Skip moves the cursor to offset off in the run of record i of Rest():
// Skip(i, 0) makes that record's own instruction the next one, and
// Skip(len(recs), 0) reaches the end. off must not exceed the record's
// Run.
func (b *Buffer) Skip(i, off int) { b.pos, b.off = b.pos+i, off }

// Reset rewinds the cursor to the first instruction.
func (b *Buffer) Reset() { b.pos, b.off = 0, 0 }

// Len returns the number of instructions in the trace.
func (b *Buffer) Len() uint64 { return b.n }

// At returns instruction i (for tests). It walks the records before i,
// so a loop over a whole trace pairs Next walks instead.
func (b *Buffer) At(i int) cpu.Retired {
	k := i
	for _, p := range b.records {
		if k <= p.Run() {
			if k > 0 {
				p = PlainAt(p.PC() + uint32(k))
			}
			return Unpack(p)
		}
		k -= p.Run() + 1
	}
	panic(fmt.Sprintf("trace: At(%d) past the end of %d instructions", i, b.n))
}

// Clone returns a new, unbound Buffer at the first instruction, sharing
// the (immutable once captured) records with an independent read
// cursor, so several simulations can consume the same trace
// concurrently.
func (b *Buffer) Clone() *Buffer {
	return &Buffer{Name: b.Name, records: b.records, n: b.n}
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
// trace, shorter when the program halts without cfg.RestartOnHalt. It
// validates the program first (isa.Program.Validate, and code no longer
// than a record can address), so no program can make it panic.
//
// Only the instructions a run cannot take become records: each stretch
// of plain instructions executes in one cpu.RunPlain call and is added
// to a run by its count — the last record's run when the stretch
// continues it, else a new plain record's — so a folded instruction
// costs no record and no Pack. Each control transfer or HALT is one
// cpu.Step. CPUs are reused across captures (cpu.Load), so a capture
// allocates its trace and nothing else once the pools are warm.
func Capture(p *isa.Program, cfg cpu.Config, n uint64) (*Buffer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Code) > MaxAddress+1 {
		return nil, fmt.Errorf("trace: program %q has %d instructions, more than a record addresses (%d)", p.Name, len(p.Code), MaxAddress+1)
	}
	c := cpus.Get().(*cpu.CPU)
	defer cpus.Put(c)
	c.Load(p, cfg)
	return capture(c, p.Name, n)
}

// cpus holds the CPUs Capture reuses: about 790 KB of memory each at
// cpu.DefaultConfig, which would otherwise die with every capture.
var cpus = sync.Pool{New: func() any { return new(cpu.CPU) }}

// capture runs the CPU c, loaded with a validated program, for n
// instructions into a trace named name.
func capture(c *cpu.CPU, name string, n uint64) (*Buffer, error) {
	s := scratch.Get().(*[]Packed)
	defer scratch.Put(s)
	return build(name, s, func(b *Buffer) error {
		for b.n < n && !c.Halted() {
			// The stretch at the PC continues the last record's run, or
			// starts a new plain record with a run of its own.
			pc := c.PC()
			room, fresh := 0, true
			if k := len(b.records) - 1; k >= 0 {
				room = b.records[k].room(pc)
				fresh = room == 0
			}
			if fresh {
				room = 1 + PlainAt(pc).room(pc+1)
			}
			limit := min(n-b.n, uint64(room))
			ran, err := c.RunPlain(limit)
			switch {
			case ran == 0:
			case fresh:
				b.records = append(b.records, PlainAt(pc)+Packed(ran-1)<<runShift)
			default:
				b.records[len(b.records)-1] += Packed(ran) << runShift
			}
			b.n += ran
			if err != nil {
				return err
			}
			if ran == limit {
				continue // the run is full or the trace complete
			}
			// The next instruction is a control transfer or HALT, or
			// the PC left the code, which Step reports. Its record is
			// never plain, so it is appended without the fold test.
			r, err := c.Step()
			if err != nil {
				return err
			}
			b.records = append(b.records, Pack(r))
			b.n++
		}
		return nil
	})
}

// scratch holds the record slices Capture and Load fold into. A trace
// keeps about one record in four and nothing tells in advance which, so
// its records grow as they arrive; growing in a reused scratch slice
// and copying the result out at its exact size keeps a trace free of
// spare capacity and leaves no outgrown arrays behind once the scratch
// has reached the largest trace.
var scratch = sync.Pool{New: func() any { return new([]Packed) }}

// build returns a buffer named name holding what fill appends to it:
// fill appends into the scratch slice s, which keeps what it grew to,
// and the buffer keeps an exact-size copy.
func build(name string, s *[]Packed, fill func(*Buffer) error) (*Buffer, error) {
	b := &Buffer{Name: name, records: (*s)[:0]}
	err := fill(b)
	*s = b.records[:0]
	if err != nil {
		return nil, err
	}
	b.records = append([]Packed(nil), b.records...)
	return b, nil
}
