package trace

import (
	"context"
	"testing"

	"mbbp/internal/cpu"
)

// testBuffer returns a buffer of n records whose PCs count up from 0.
func testBuffer(name string, n int) *Buffer {
	b := NewBuffer(name, n)
	for i := 0; i < n; i++ {
		b.Append(cpu.Retired{PC: uint32(i)})
	}
	return b
}

func TestWithContextForwardsUncancelled(t *testing.T) {
	b := testBuffer("fwd", 3*ctxCheckStride/2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := WithContext(ctx, b.Clone())
	var n uint64
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if r.PC != uint32(n) {
			t.Fatalf("record %d: PC = %d", n, r.PC)
		}
		n++
	}
	if n != b.Len() {
		t.Fatalf("forwarded %d of %d records", n, b.Len())
	}
	if src.Len() != b.Len() {
		t.Fatalf("Len = %d, want %d", src.Len(), b.Len())
	}
}

func TestWithContextBackgroundIsPassthrough(t *testing.T) {
	b := testBuffer("bg", 4)
	if src := WithContext(context.Background(), b); src != Source(b) {
		t.Error("Background context should return the source unwrapped")
	}
}

func TestWithContextStopsOnCancel(t *testing.T) {
	b := testBuffer("cancel", 4*ctxCheckStride)
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, b)

	// Drain past the first check boundary, then cancel.
	for i := 0; i < ctxCheckStride+10; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	cancel()
	var extra int
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		extra++
	}
	if extra >= ctxCheckStride {
		t.Errorf("read %d records after cancel; want < %d", extra, ctxCheckStride)
	}
	if _, ok := src.Next(); ok {
		t.Error("Next after cancellation latch still yields records")
	}

	// Reset re-arms the latch; with the context still cancelled the
	// stream ends immediately.
	src.Reset()
	if _, ok := src.Next(); ok {
		t.Error("Next after Reset under a cancelled context yields records")
	}
}

func TestWithContextResetRewinds(t *testing.T) {
	b := testBuffer("reset", 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := WithContext(ctx, b)
	first, _ := src.Next()
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	src.Reset()
	again, ok := src.Next()
	if !ok || again != first {
		t.Errorf("after Reset: record %+v ok=%v, want %+v", again, ok, first)
	}
}
