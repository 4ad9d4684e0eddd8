// Package ras implements the return address stack (Kaeli & Emma style)
// used as the prediction source for return instructions, including the
// second-block bypass rules of §3.1: when the first block of a dual
// fetch performs a call, the second block's RAS input is the address
// after the call; when it performs a return, the second block sees the
// second entry of the stack.
package ras

// Stack is a fixed-size circular return address stack. Overflow
// overwrites the oldest entry and underflow yields stale data, exactly
// like the hardware structure it models; neither is an error.
type Stack struct {
	entries []uint32
	top     int // index of the most recent entry
	depth   int // number of live entries, capped at len(entries)
}

// New returns a stack with the given capacity (the paper uses 32).
func New(size int) *Stack {
	if size < 1 {
		panic("ras: size must be positive")
	}
	s := &Stack{entries: make([]uint32, size)}
	s.Reset()
	return s
}

// Reset empties the stack in place, stale slots included, as if freshly
// built. It allocates nothing.
func (s *Stack) Reset() {
	clear(s.entries)
	s.top, s.depth = -1, 0
}

// Depth returns the number of live entries (saturating at the capacity).
func (s *Stack) Depth() int { return s.depth }

// Push records a return address.
func (s *Stack) Push(addr uint32) {
	s.top++
	if s.top == len(s.entries) {
		s.top = 0
	}
	s.entries[s.top] = addr
	if s.depth < len(s.entries) {
		s.depth++
	}
}

// Pop removes and returns the top of the stack. An empty stack returns
// whatever stale value is at the top slot (hardware never faults here).
func (s *Stack) Pop() uint32 {
	if s.top < 0 {
		return 0
	}
	v := s.entries[s.top]
	s.top = s.below(s.top)
	if s.depth > 0 {
		s.depth--
	}
	return v
}

// Top returns the top of the stack without popping.
func (s *Stack) Top() uint32 {
	if s.top < 0 {
		return 0
	}
	return s.entries[s.top]
}

// Second returns the entry below the top (the value a return in the
// first fetch block exposes to the second block's multiplexer).
func (s *Stack) Second() uint32 {
	if s.top < 0 {
		return 0
	}
	return s.entries[s.below(s.top)]
}

// below returns the circular index under slot i (0 <= i < len(entries)).
func (s *Stack) below(i int) int {
	if i == 0 {
		return len(s.entries) - 1
	}
	return i - 1
}
