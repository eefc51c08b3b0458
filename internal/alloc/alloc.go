// Package alloc implements FlatStore's lazy-persist NVM allocator (§3.2).
//
// The arena is cut into 4 MB chunks. Each in-use chunk is cut into data
// blocks of a single size class; the class is recorded persistently in the
// chunk header when the chunk is cut, but the per-chunk allocation bitmap
// is updated WITHOUT flushing. This removes one flush from every Put: the
// OpLog already records the address of every allocated record, so after a
// crash the bitmaps are reconstructed deterministically by scanning the
// log and calling RecoverMark for every live pointer — the chunk base is
// addr &^ (ChunkSize-1) and the slot is derived from the persisted class.
//
// Chunks are partitioned to server cores (a Hoard-like design): each core
// allocates from privately owned chunks without locking; only grabbing a
// fresh chunk from the global pool takes a mutex. Allocations larger than
// the maximum class take one or more contiguous whole chunks.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"flatstore/internal/pmem"
)

const (
	// headerReserve is the space reserved at the start of every chunk
	// for the persistent header and bitmap. 64 B of header plus a
	// ≤2046 B bitmap (minimum class 256 B) fit comfortably.
	headerReserve = 4096

	// MinClass is the smallest data-block class. The engine stores
	// records ≤256 B inline in the OpLog, so the allocator never sees
	// smaller requests (the paper dismisses the low 8 bits of Ptr for
	// the same reason).
	MinClass = 256
	// MaxClass is the largest within-chunk class; larger allocations
	// take whole chunks.
	MaxClass = 1 << 20

	// Chunk header magic values (persisted).
	magicFree  = 0
	magicClass = 0xF1A7_0000_0000_0000 // low 32 bits hold the class size
	magicHuge  = 0x46A7_0000_0000_0000 // low 32 bits hold the chunk count
	magicMask  = 0xFFFF_0000_0000_0000
)

// ErrOutOfMemory is returned when no chunk can satisfy an allocation.
var ErrOutOfMemory = errors.New("alloc: out of NVM space")

// NumClasses is the number of within-chunk size classes
// (256 B, 512 B, … 1 MB).
const NumClasses = 13

// classIndex returns the class index for a payload size, or -1 if the
// request needs whole chunks.
func classIndex(size int) int {
	if size <= 0 {
		panic(fmt.Sprintf("alloc: non-positive size %d", size))
	}
	if size > MaxClass {
		return -1
	}
	c := MinClass
	for i := 0; i < NumClasses; i++ {
		if size <= c {
			return i
		}
		c <<= 1
	}
	return -1
}

// ClassSize returns the block size of class index i.
func ClassSize(i int) int { return MinClass << i }

// chunkState is the DRAM bookkeeping for one chunk.
type chunkState struct {
	class    int // class index, -1 when free or huge
	owner    int // core that cut the chunk, -1 when unowned
	used     int // allocated blocks
	capacity int // total blocks
	nextHint int // slot search hint
	hugeLen  int // >0: first chunk of a huge allocation spanning hugeLen chunks
}

// Allocator manages a contiguous range of chunks in an arena.
type Allocator struct {
	arena *pmem.Arena
	base  int // first managed byte (chunk-aligned)
	n     int // managed chunks

	mu       sync.Mutex
	free     []int // free chunk indices (LIFO)
	chunks   []chunkState
	recStats RecoveryStats // integrity events since BeginRecovery

	// classUsed mirrors the per-chunk used counts aggregated by class.
	// chunkState.used is owner-core-private (mutated without al.mu), so a
	// live occupancy snapshot cannot read it; these atomics are the
	// race-clean aggregate, maintained at every alloc/free/recover-mark.
	classUsed [NumClasses]atomic.Int64

	cores []*CoreAlloc

	// poolHook, when set, runs after every change to the free pool
	// (outside mu): the engine wakes its log cleaners on it.
	poolHook func()
}

// New creates an allocator over chunks [firstChunk, firstChunk+nchunks) of
// the arena, with one private allocation context per core.
func New(arena *pmem.Arena, firstChunk, nchunks, ncores int) *Allocator {
	if ncores <= 0 {
		panic("alloc: need at least one core")
	}
	if (firstChunk+nchunks)*pmem.ChunkSize > arena.Size() {
		panic("alloc: chunk range exceeds arena")
	}
	al := &Allocator{
		arena:  arena,
		base:   firstChunk * pmem.ChunkSize,
		n:      nchunks,
		chunks: make([]chunkState, nchunks),
	}
	for i := range al.chunks {
		al.chunks[i] = chunkState{class: -1, owner: -1}
		al.free = append(al.free, nchunks-1-i) // pop from the front of the range first
	}
	for c := 0; c < ncores; c++ {
		ca := &CoreAlloc{al: al, core: c}
		for i := range ca.partial {
			ca.partial[i] = -1
		}
		al.cores = append(al.cores, ca)
	}
	return al
}

// SetPoolHook installs fn to run after every change to the free-chunk
// pool. Install it before the allocator is shared between goroutines.
func (al *Allocator) SetPoolHook(fn func()) { al.poolHook = fn }

// poolChanged runs the pool hook, if any.
func (al *Allocator) poolChanged() {
	if al.poolHook != nil {
		al.poolHook()
	}
}

// Core returns core c's private allocation context.
func (al *Allocator) Core(c int) *CoreAlloc { return al.cores[c] }

// FreeChunks returns the number of chunks in the global free pool.
func (al *Allocator) FreeChunks() int {
	al.mu.Lock()
	defer al.mu.Unlock()
	return len(al.free)
}

// chunkOff returns the byte offset of chunk i in the arena.
func (al *Allocator) chunkOff(i int) int { return al.base + i*pmem.ChunkSize }

// chunkIndex returns the chunk index containing arena offset off.
func (al *Allocator) chunkIndex(off int64) int {
	return (int(off) - al.base) / pmem.ChunkSize
}

// popFree removes a free chunk from the pool.
func (al *Allocator) popFree() (int, bool) {
	al.mu.Lock()
	if len(al.free) == 0 {
		al.mu.Unlock()
		return 0, false
	}
	i := al.free[len(al.free)-1]
	al.free = al.free[:len(al.free)-1]
	al.mu.Unlock()
	al.poolChanged()
	return i, true
}

// ClassOccupancy is one size class's live footprint.
type ClassOccupancy struct {
	Chunks     int // chunks cut to this class
	UsedBlocks int // allocated blocks across them
	CapBlocks  int // total block slots across them
}

// Occupancy is a moment-in-time view of how the managed chunks are used.
type Occupancy struct {
	Classes [NumClasses]ClassOccupancy
	Raw     int // raw whole chunks (log segments)
	Huge    int // chunks consumed by huge (multi-chunk) allocations
	Free    int // chunks in the free pool
}

// Occupancy snapshots the allocator's chunk usage under its lock (reader
// path only; the per-op allocation fast path never takes al.mu).
func (al *Allocator) Occupancy() Occupancy {
	var o Occupancy
	al.mu.Lock()
	defer al.mu.Unlock()
	o.Free = len(al.free)
	for i := range al.chunks {
		c := &al.chunks[i]
		switch {
		case c.class >= 0:
			cl := &o.Classes[c.class]
			cl.Chunks++
			cl.CapBlocks += c.capacity
		case c.owner == -2:
			o.Raw++
		case c.hugeLen > 0:
			o.Huge += c.hugeLen
		}
	}
	for i := range o.Classes {
		o.Classes[i].UsedBlocks = int(al.classUsed[i].Load())
	}
	return o
}

// popFreeRun removes a run of n contiguous free chunks from the pool.
func (al *Allocator) popFreeRun(n int) (int, bool) {
	al.mu.Lock()
	defer al.mu.Unlock()
	inPool := make(map[int]bool, len(al.free))
	for _, i := range al.free {
		inPool[i] = true
	}
	for start := 0; start+n <= al.n; start++ {
		ok := true
		for j := start; j < start+n; j++ {
			if !inPool[j] {
				ok = false
				break
			}
		}
		if ok {
			kept := al.free[:0]
			for _, i := range al.free {
				if i < start || i >= start+n {
					kept = append(kept, i)
				}
			}
			al.free = kept
			return start, true
		}
	}
	return 0, false
}

func (al *Allocator) pushFree(i int) {
	al.mu.Lock()
	al.free = append(al.free, i)
	al.mu.Unlock()
	al.poolChanged()
}

// AllocRawChunk hands out one whole free chunk (used by the OpLog for log
// segments). The chunk header is NOT touched: the caller owns all 4 MB.
func (al *Allocator) AllocRawChunk() (off int64, err error) {
	i, ok := al.popFree()
	if !ok {
		return 0, ErrOutOfMemory
	}
	al.mu.Lock()
	al.chunks[i] = chunkState{class: -1, owner: -2} // -2 marks raw
	al.mu.Unlock()
	return int64(al.chunkOff(i)), nil
}

// FreeRawChunk returns a raw chunk to the pool, clearing its first word.
// Raw chunks are log segments whose header magic would otherwise persist
// after the free: a later salvage recovery scanning for orphaned log
// chunks must not mistake a freed (possibly reused and stale) segment for
// one holding acknowledged data.
func (al *Allocator) FreeRawChunk(off int64, f *pmem.Flusher) {
	i := al.chunkIndex(off)
	f.PersistUint64(int(off), magicFree)
	al.mu.Lock()
	al.chunks[i] = chunkState{class: -1, owner: -1}
	al.mu.Unlock()
	al.pushFree(i)
}

// CoreAlloc is one core's private allocation context. It is not safe for
// concurrent use (each server core owns exactly one).
type CoreAlloc struct {
	al      *Allocator
	core    int
	partial [NumClasses]int // current chunk per class, -1 if none
}

// cut takes a free chunk, assigns it the class, and persists the header.
func (c *CoreAlloc) cut(class int, f *pmem.Flusher) (int, error) {
	i, ok := c.al.popFree()
	if !ok {
		return 0, ErrOutOfMemory
	}
	cs := ClassSize(class)
	off := c.al.chunkOff(i)
	// Persist the cutting size at the head of the chunk (§3.2): this is
	// the only flushed allocator metadata on the allocation path.
	f.PersistUint64(off, magicClass|uint64(cs))
	// The bitmap starts zeroed in a fresh arena; after runtime reuse it
	// may hold stale bits in the cache view, so clear it (no flush —
	// recovery rebuilds it anyway).
	bm := c.bitmapBytes(cs)
	mem := c.al.arena.Mem()
	for j := off + 64; j < off+64+bm; j++ {
		mem[j] = 0
	}
	c.al.mu.Lock()
	c.al.chunks[i] = chunkState{
		class:    class,
		owner:    c.core,
		capacity: (pmem.ChunkSize - headerReserve) / cs,
	}
	c.al.mu.Unlock()
	return i, nil
}

func (c *CoreAlloc) bitmapBytes(classSize int) int {
	blocks := (pmem.ChunkSize - headerReserve) / classSize
	return (blocks + 7) / 8
}

// Alloc returns the arena offset of a block that can hold size bytes.
// Small requests are rounded up to a class; requests beyond MaxClass take
// whole chunks. The returned offset is always ≥256-byte aligned, so it can
// be packed into a 40-bit OpLog pointer. f persists the chunk header when
// a fresh chunk is cut; the bitmap update itself is NOT persisted (that is
// the point of the lazy-persist design).
func (c *CoreAlloc) Alloc(size int, f *pmem.Flusher) (int64, error) {
	class := classIndex(size)
	if class < 0 {
		return c.allocHuge(size, f)
	}
	ci := c.partial[class]
	if ci < 0 {
		n, err := c.cut(class, f)
		if err != nil {
			return 0, err
		}
		c.partial[class] = n
		ci = n
	}
	off, ok := c.allocInChunk(ci)
	if !ok {
		// Chunk full: retire it and cut a new one.
		n, err := c.cut(class, f)
		if err != nil {
			return 0, err
		}
		c.partial[class] = n
		off, ok = c.allocInChunk(n)
		if !ok {
			panic("alloc: fresh chunk has no free block")
		}
	}
	c.al.classUsed[class].Add(1)
	return off, nil
}

// allocInChunk finds a clear bitmap bit in chunk ci, sets it, and returns
// the block's arena offset.
func (c *CoreAlloc) allocInChunk(ci int) (int64, bool) {
	st := &c.al.chunks[ci]
	if st.used == st.capacity {
		return 0, false
	}
	cs := ClassSize(st.class)
	base := c.al.chunkOff(ci)
	mem := c.al.arena.Mem()
	bm := mem[base+64 : base+64+c.bitmapBytes(cs)]
	nwords := (st.capacity + 7) / 8
	for w := 0; w < nwords; w++ {
		idx := (st.nextHint + w) % nwords
		b := bm[idx]
		if b == 0xff {
			continue
		}
		bit := bits.TrailingZeros8(^b)
		slot := idx*8 + bit
		if slot >= st.capacity {
			continue
		}
		bm[idx] = b | 1<<bit // no flush: lazy persist
		st.used++
		st.nextHint = idx
		return int64(base + headerReserve + slot*cs), true
	}
	return 0, false
}

// allocHuge allocates ⌈size/ChunkSize⌉ contiguous chunks.
func (c *CoreAlloc) allocHuge(size int, f *pmem.Flusher) (int64, error) {
	n := (size + headerReserve + pmem.ChunkSize - 1) / pmem.ChunkSize
	start, ok := c.al.popFreeRun(n)
	if !ok {
		return 0, ErrOutOfMemory
	}
	c.al.poolChanged()
	off := c.al.chunkOff(start)
	f.PersistUint64(off, magicHuge|uint64(n))
	c.al.mu.Lock()
	for j := start; j < start+n; j++ {
		c.al.chunks[j] = chunkState{class: -1, owner: c.core}
	}
	c.al.chunks[start].hugeLen = n
	c.al.mu.Unlock()
	return int64(off + headerReserve), nil
}

// Free releases a previously allocated block. It must be called with the
// same size the block was allocated with. The bitmap update is volatile,
// like the allocation itself. Empty chunks are returned to the global
// pool; retiring a chunk persists the cleared header magic via f so a
// later clean-shutdown recovery cannot resurrect it.
func (c *CoreAlloc) Free(off int64, size int, f *pmem.Flusher) {
	class := classIndex(size)
	if class < 0 {
		c.freeHuge(off, f)
		return
	}
	ci := c.al.chunkIndex(off)
	st := &c.al.chunks[ci]
	cs := ClassSize(st.class)
	base := c.al.chunkOff(ci)
	slot := (int(off) - base - headerReserve) / cs
	if slot < 0 || slot >= st.capacity {
		panic(fmt.Sprintf("alloc: Free(%d) outside chunk %d data area", off, ci))
	}
	mem := c.al.arena.Mem()
	byteIdx := base + 64 + slot/8
	mask := byte(1 << (slot % 8))
	if mem[byteIdx]&mask == 0 {
		panic(fmt.Sprintf("alloc: double free of block at %d", off))
	}
	mem[byteIdx] &^= mask
	st.used--
	c.al.classUsed[st.class].Add(-1)
	if st.used == 0 {
		// Retire the empty chunk: clear the persisted class so crash
		// recovery sees it as free, and return it to the pool.
		f.PersistUint64(base, magicFree)
		if c.partial[st.class] == ci {
			c.partial[st.class] = -1
		}
		c.al.mu.Lock()
		c.al.chunks[ci] = chunkState{class: -1, owner: -1}
		c.al.mu.Unlock()
		c.al.pushFree(ci)
	}
}

func (c *CoreAlloc) freeHuge(off int64, f *pmem.Flusher) {
	start := c.al.chunkIndex(off - headerReserve)
	c.al.mu.Lock()
	n := c.al.chunks[start].hugeLen
	if n == 0 {
		c.al.mu.Unlock()
		panic(fmt.Sprintf("alloc: freeHuge(%d) is not a huge allocation", off))
	}
	base := c.al.chunkOff(start)
	f.PersistUint64(base, magicFree)
	for j := start; j < start+n; j++ {
		c.al.chunks[j] = chunkState{class: -1, owner: -1}
	}
	c.al.mu.Unlock()
	for j := start; j < start+n; j++ {
		c.al.pushFree(j)
	}
}

// UsedBlocks reports the allocated block count of the chunk containing
// off. Intended for tests.
func (al *Allocator) UsedBlocks(off int64) int {
	al.mu.Lock()
	defer al.mu.Unlock()
	return al.chunks[al.chunkIndex(off)].used
}
