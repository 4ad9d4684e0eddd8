package bac

import (
	"math/rand/v2"
	"testing"

	"mbbp/internal/cpu"
	"mbbp/internal/isa"
	"mbbp/internal/trace"
)

// refBB is one basic block as the reference segmentation forms it.
type refBB struct {
	start, next uint32
	n           int
	exit        cpu.Retired // the terminating transfer, when branch
	branch      bool
}

// refBasicBlocks is the reference basic-block segmentation: the
// instruction-at-a-time walk over Buffer.Next that bbReader's run
// walk replaced. A block ends at any control transfer (taken or not),
// at the end of its cache line or of the width, at the end of the
// stream, or before a PC discontinuity.
func refBasicBlocks(src *trace.Buffer, width, lineSize int) []refBB {
	src.Reset()
	var out []refBB
	r, ok := src.Next()
	for ok {
		b := refBB{start: r.PC}
		limit := min(lineSize-int(r.PC)%lineSize, width)
		for {
			b.n++
			if r.Class.IsControlTransfer() {
				b.exit, b.branch = r, true
				b.next = r.PC + 1
				if r.Taken {
					b.next = r.Target
				}
				r, ok = src.Next()
				break
			}
			prev := r
			r, ok = src.Next()
			if b.n == limit || !ok {
				b.next = b.start + uint32(b.n)
				break
			}
			if r.PC != prev.PC+1 {
				b.next = r.PC
				break
			}
		}
		out = append(out, b)
	}
	return out
}

// randomRunTrace is a random instruction stream with plain runs of
// every length up to 600 (so past the 255 one record folds), taken and
// not-taken transfers of every class, plain instructions carrying a
// target, and discontinuities without a redirecting record.
func randomRunTrace(seed uint64, steps int) *trace.Buffer {
	rng := rand.New(rand.NewPCG(seed, 2))
	b := trace.NewBuffer("runs")
	pc := uint32(rng.IntN(64))
	for range steps {
		switch k := rng.IntN(10); {
		case k < 4:
			for range 1 + rng.IntN([]int{4, 40, 600}[rng.IntN(3)]) {
				b.Append(cpu.Retired{PC: pc})
				pc++
			}
		case k < 8:
			r := cpu.Retired{PC: pc, Class: isa.Class(1 + rng.IntN(int(isa.NumClasses)-1)), Target: uint32(rng.IntN(4096))}
			r.Taken = r.Class != isa.ClassCond || rng.IntN(2) == 0
			b.Append(r)
			pc++
			if r.Taken {
				pc = r.Target
			}
		case k < 9:
			b.Append(cpu.Retired{PC: pc, Target: 1 + uint32(rng.IntN(100))})
			pc++
		default:
			pc += 2 + uint32(rng.IntN(50))
		}
	}
	return b
}

// TestBasicBlockFormation checks bbReader's run walk against the
// reference segmentation on random run-length traces, across block
// widths and line sizes.
func TestBasicBlockFormation(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		src := randomRunTrace(seed, 2000)
		for _, width := range []int{2, 4, 8, 16, 64} {
			for _, lineSize := range []int{4, 8, 16, 32, 128} {
				want := refBasicBlocks(src, width, lineSize)
				src.Reset()
				rd := &bbReader{src: src, width: width, lineSize: lineSize}
				for i, w := range want {
					g, ok := rd.next()
					if !ok {
						t.Fatalf("seed %d W=%d line=%d: reader ends after %d blocks, reference has %d", seed, width, lineSize, i, len(want))
					}
					last, branch := g.exit()
					if g.start != w.start || g.n != w.n || g.next != w.next || branch != w.branch ||
						(branch && trace.Unpack(last) != w.exit) {
						t.Fatalf("seed %d W=%d line=%d block %d:\n reader    start %d n %d next %d branch %v exit %+v\n reference start %d n %d next %d branch %v exit %+v",
							seed, width, lineSize, i, g.start, g.n, g.next, branch, trace.Unpack(last),
							w.start, w.n, w.next, w.branch, w.exit)
					}
				}
				if _, ok := rd.next(); ok {
					t.Fatalf("seed %d W=%d line=%d: reader forms more than the reference's %d blocks", seed, width, lineSize, len(want))
				}
			}
		}
	}
}
