package trace

import (
	"context"
	"errors"
	"testing"

	"mbbp/internal/cpu"
)

// testBuffer returns a buffer of n records whose PCs count up from 0.
func testBuffer(name string, n int) *Buffer {
	b := NewBuffer(name)
	for i := 0; i < n; i++ {
		b.Append(cpu.Retired{PC: uint32(i)})
	}
	return b
}

// An uncancelled bound cursor walks every record, in order, and leaves
// the cursor it was cloned from where it was.
func TestWithContextForwardsUncancelled(t *testing.T) {
	b := testBuffer("fwd", 3*PollStride/2)
	b.Next()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := b.WithContext(ctx)
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
		t.Fatalf("walked %d of %d records", n, b.Len())
	}
	if src.Len() != b.Len() || src.Name != b.Name {
		t.Fatalf("clone Len/Name = %d/%q, want %d/%q", src.Len(), src.Name, b.Len(), b.Name)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("Err on an uncancelled walk = %v", err)
	}
	if r, ok := b.Next(); !ok || r.PC != 1 {
		t.Fatalf("original cursor moved: next = %+v, %v; want PC 1", r, ok)
	}
}

// A context that can never be done binds nothing: the clone is a plain
// cursor whose Err is always nil.
func TestWithContextBackgroundIsPassthrough(t *testing.T) {
	b := testBuffer("bg", 4)
	for _, ctx := range []context.Context{context.Background(), context.TODO(), nil} {
		c := b.WithContext(ctx)
		if c == b {
			t.Fatal("WithContext returned the receiver, not a clone")
		}
		if c.ctx != nil {
			t.Errorf("never-done context %v was bound", ctx)
		}
		if c.Err() != nil {
			t.Errorf("unbound Err = %v", c.Err())
		}
	}
}

// Cancelling the bound context makes the cursor's Err non-nil; the
// unbound original and a rebinding to a live context are unaffected.
// Records still read — stopping is the reader's poll.
func TestWithContextStopsOnCancel(t *testing.T) {
	b := testBuffer("cancel", 4)
	ctx, cancel := context.WithCancel(context.Background())
	src := b.WithContext(ctx)
	if src.Err() != nil {
		t.Fatalf("Err before cancel = %v", src.Err())
	}
	cancel()
	if !errors.Is(src.Err(), context.Canceled) {
		t.Errorf("Err after cancel = %v, want context.Canceled", src.Err())
	}
	if b.Err() != nil {
		t.Errorf("unbound original Err = %v", b.Err())
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	if err := src.WithContext(live).Err(); err != nil {
		t.Errorf("rebound cursor Err = %v, want nil", err)
	}
	if _, ok := src.Next(); !ok {
		t.Error("Next consulted the context")
	}
}

func TestWithContextResetRewinds(t *testing.T) {
	b := testBuffer("reset", 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := b.WithContext(ctx)
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
