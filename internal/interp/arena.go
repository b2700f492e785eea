package interp

import (
	"sync"
	"unsafe"
)

// Per-execution arena allocation. Heap objects and their field slices come
// from chunked arenas owned by the Heap; engines that created their own
// heap release the chunks wholesale into process-wide pools when the run
// reaches quiescence, so allocs/op stays flat as workload size grows: a
// steady state of repeated executions recycles the same chunks instead of
// exercising the garbage collector.
//
// Lifetime rules (see DESIGN.md §10): an arena chunk may be released only
// when no object allocated from it can be referenced again — in practice,
// when the engine that owns the heap has reached quiescence and its result
// carries no object pointers. Heaps handed in from outside (differential
// harnesses with tracking enabled) are never released.

// Chunk sizes are byte budgets; the element counts follow from the element
// sizes, so a smaller Value means more Values per chunk, not smaller chunks.
const (
	// arenaObjChunk is the number of Objects per 16 KiB arena chunk.
	arenaObjChunk = (16 << 10) / int(unsafe.Sizeof(Object{}))
	// arenaValChunk is the number of Values per 64 KiB arena chunk; larger
	// field/element slices get a dedicated allocation.
	arenaValChunk = (64 << 10) / int(unsafe.Sizeof(Value{}))
	// arenaArrChunk is the number of Array headers per 16 KiB arena chunk.
	// Session feeds allocate one Array per injected request (the args
	// String[]), so headers recycle with the rest of the arena.
	arenaArrChunk = (16 << 10) / int(unsafe.Sizeof(Array{}))
)

// Chunk pools are process-wide: sequential executions (a bambood worker
// draining jobs, a benchmark loop) hand chunks from one run to the next.
var (
	objChunkPool sync.Pool // of []Object
	valChunkPool sync.Pool // of []Value
	arrChunkPool sync.Pool // of []Array
)

// arena is a chunked bump allocator for Objects and Value slices. The
// mutex serializes allocation (the concurrent engine allocates from many
// goroutines); allocation is rare relative to instruction dispatch, so the
// lock is not a hot point.
type arena struct {
	mu        sync.Mutex
	objChunks [][]Object
	objUsed   int // used slots in the last object chunk
	valChunks [][]Value
	valUsed   int // used slots in the last value chunk
	arrChunks [][]Array
	arrUsed   int   // used slots in the last array chunk
	reused    int64 // bytes of chunk capacity obtained from the pools
}

// newObject returns a pointer to a zeroed Object slot.
func (a *arena) newObject() *Object {
	a.mu.Lock()
	if len(a.objChunks) == 0 || a.objUsed == arenaObjChunk {
		a.objChunks = append(a.objChunks, a.grabObjChunk())
		a.objUsed = 0
	}
	c := a.objChunks[len(a.objChunks)-1]
	o := &c[a.objUsed]
	a.objUsed++
	a.mu.Unlock()
	return o
}

func (a *arena) grabObjChunk() []Object {
	if v := objChunkPool.Get(); v != nil {
		c := v.([]Object)
		// Scrub the recycled chunk in one memclr. clear (rather than
		// element-wise struct assignment) also sidesteps vet's copylocks:
		// Object embeds a mutex and atomics.
		clear(c)
		a.reused += int64(arenaObjChunk) * int64(unsafe.Sizeof(Object{}))
		return c
	}
	return make([]Object, arenaObjChunk)
}

// newValues returns a zeroed slice of n Values carved from the arena
// (capacity-clamped so appends cannot bleed into a neighbor). Oversized
// requests get a dedicated allocation.
func (a *arena) newValues(n int) []Value {
	if n > arenaValChunk {
		return make([]Value, n)
	}
	a.mu.Lock()
	if len(a.valChunks) == 0 || a.valUsed+n > arenaValChunk {
		a.valChunks = append(a.valChunks, a.grabValChunk())
		a.valUsed = 0
	}
	c := a.valChunks[len(a.valChunks)-1]
	s := c[a.valUsed : a.valUsed+n : a.valUsed+n]
	a.valUsed += n
	a.mu.Unlock()
	return s
}

func (a *arena) grabValChunk() []Value {
	if v := valChunkPool.Get(); v != nil {
		c := v.([]Value)
		clear(c)
		a.reused += int64(arenaValChunk) * int64(unsafe.Sizeof(Value{}))
		return c
	}
	return make([]Value, arenaValChunk)
}

// newArray returns a pointer to a zeroed Array header slot.
func (a *arena) newArray() *Array {
	a.mu.Lock()
	if len(a.arrChunks) == 0 || a.arrUsed == arenaArrChunk {
		a.arrChunks = append(a.arrChunks, a.grabArrChunk())
		a.arrUsed = 0
	}
	c := a.arrChunks[len(a.arrChunks)-1]
	r := &c[a.arrUsed]
	a.arrUsed++
	a.mu.Unlock()
	return r
}

func (a *arena) grabArrChunk() []Array {
	if v := arrChunkPool.Get(); v != nil {
		c := v.([]Array)
		clear(c)
		a.reused += int64(arenaArrChunk) * int64(unsafe.Sizeof(Array{}))
		return c
	}
	return make([]Array, arenaArrChunk)
}

// release returns every chunk to the process-wide pools and resets the
// arena. The pooled chunks may still reference heap data (a Value span
// keeps its object graph alive until reuse or a GC drops the pool); that
// retention is bounded by the pool and is the price of recycling.
func (a *arena) release() {
	a.mu.Lock()
	obj, val, arr := a.objChunks, a.valChunks, a.arrChunks
	a.objChunks, a.valChunks, a.arrChunks = nil, nil, nil
	a.objUsed, a.valUsed, a.arrUsed = 0, 0, 0
	a.mu.Unlock()
	for _, c := range obj {
		objChunkPool.Put(c)
	}
	for _, c := range val {
		valChunkPool.Put(c)
	}
	for _, c := range arr {
		arrChunkPool.Put(c)
	}
}

// reusedBytes reports how many bytes of chunk capacity came from the pools.
func (a *arena) reusedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reused
}

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
