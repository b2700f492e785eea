package interp

import (
	"sync"
	"unsafe"
)

// frameStack is a per-execution register-file stack: each call frame is a
// span carved from pooled chunks, claimed and released in LIFO order by
// the fast dispatcher. One invocation's whole call tree reuses the same
// chunks, and the stacks themselves recycle across invocations through a
// pool, so call-heavy code performs zero frame allocations in steady
// state. Chunks are separate slices, so growing the stack never moves a
// frame a caller still holds.
type frameStack struct {
	chunks [][]Value
	ci     int // active chunk index
	sp     int // used slots in the active chunk
}

// frameChunkRegs is the register capacity of one 32 KiB frame-stack chunk.
// Functions with more registers than this (none of the embedded
// benchmarks come close) fall back to a dedicated allocation.
const frameChunkRegs = (32 << 10) / int(unsafe.Sizeof(Value{}))

var frameStackPool = sync.Pool{New: func() any {
	return &frameStack{chunks: [][]Value{make([]Value, frameChunkRegs)}}
}}

func getFrameStack() *frameStack {
	fs := frameStackPool.Get().(*frameStack)
	fs.ci, fs.sp = 0, 0
	return fs
}

func putFrameStack(fs *frameStack) { frameStackPool.Put(fs) }

// alloc returns a zeroed span of n registers. Callers save (ci, sp) before
// calling and restore the pair afterwards to pop the frame.
func (s *frameStack) alloc(n int) []Value {
	if n > frameChunkRegs {
		return make([]Value, n)
	}
	if s.sp+n > frameChunkRegs {
		s.ci++
		if s.ci == len(s.chunks) {
			s.chunks = append(s.chunks, make([]Value, frameChunkRegs))
		}
		s.sp = 0
	}
	c := s.chunks[s.ci]
	f := c[s.sp : s.sp+n : s.sp+n]
	s.sp += n
	clear(f)
	return f
}
