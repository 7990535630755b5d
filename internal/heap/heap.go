// Package heap implements the simulated process heap: a glibc-malloc-like
// span allocator layered over the paged address space.
//
// The BTDP design (Section 5.2 of the paper) leans on four properties of the
// real allocator, all of which this implementation provides:
//
//  1. allocations come out of the heap's value range, so pointers into them
//     cluster with benign heap pointers under AOCR's statistical analysis;
//  2. page-aligned, page-sized allocations exist (AllocAligned), so a chunk
//     can be protected at page granularity;
//  3. an allocation's pages can have their permissions revoked (Protect),
//     turning the chunk into a guard page;
//  4. chunks that are allocated and never freed are never reused for other
//     allocations, so a guard page stays a guard page.
//
// Placement is randomized (seeded) so that the surviving guard pages from
// the constructor's allocate-then-free-a-subset dance end up scattered.
package heap

import (
	"fmt"
	"slices"
	"sort"

	"r2c/internal/mem"
	"r2c/internal/rng"
	"r2c/internal/telemetry"
)

// MinAlign is the minimum alignment of returned chunks, matching glibc.
const MinAlign = 16

// Allocator manages a [base, limit) heap region inside a Space.
type Allocator struct {
	space *mem.Space
	base  uint64
	limit uint64
	brk   uint64 // next fresh address
	rnd   *rng.RNG

	allocs []span   // live allocations, sorted by address
	free   []span   // sorted, coalesced free spans below brk
	refs   []uint16 // live allocations per page, indexed from base's page up to brk; at most PageSize/MinAlign+2 chunks touch a page
	// shared marks allocs, free and refs as shared with the allocator this
	// one was cloned from: the first mutation copies them into store, the
	// storage a CloneTo kept from the allocator's previous contents (see
	// own).
	shared bool
	store  tables

	livePages  int
	liveBytes  uint64
	totalAlloc uint64
	numAllocs  uint64
	numFrees   uint64
}

type span struct{ addr, size uint64 }

// tables is an allocator's bookkeeping storage.
type tables struct {
	allocs, free []span
	refs         []uint16
}

// New creates an allocator over [base, limit). base must be page-aligned.
func New(space *mem.Space, base, limit uint64, r *rng.RNG) (*Allocator, error) {
	if base&mem.PageMask != 0 {
		return nil, fmt.Errorf("heap: base %#x not page aligned", base)
	}
	if limit <= base {
		return nil, fmt.Errorf("heap: empty region [%#x,%#x)", base, limit)
	}
	return &Allocator{
		space: space,
		base:  base,
		limit: limit,
		brk:   base,
		rnd:   r,
	}, nil
}

// CloneTo makes dst a copy of a over space (a copy of a's space, see
// mem.Space.CloneTo): the RNG state is copied, and the bookkeeping tables
// stay shared with a until dst first mutates them. a itself must not mutate
// afterwards, so clone only an allocator nothing uses any more (a process
// template's). dst's previous contents are discarded and its storage
// reused.
func (a *Allocator) CloneTo(dst *Allocator, space *mem.Space) {
	st, r := dst.store, dst.rnd
	if !dst.shared {
		st = tables{dst.allocs, dst.free, dst.refs}
	}
	if r == nil {
		r = new(rng.RNG)
	}
	*r = *a.rnd
	*dst = *a
	dst.space, dst.rnd, dst.shared, dst.store = space, r, true, st
}

// own gives the allocator private copies of its bookkeeping before a
// mutation, if they are still shared with the allocator it was cloned from.
func (a *Allocator) own() {
	if !a.shared {
		return
	}
	a.allocs = append(a.store.allocs[:0], a.allocs...)
	a.free = append(a.store.free[:0], a.free...)
	a.refs = append(a.store.refs[:0], a.refs...)
	a.shared, a.store = false, tables{}
}

// Alloc returns a 16-byte aligned chunk of at least size bytes.
func (a *Allocator) Alloc(size uint64) (uint64, error) {
	return a.AllocAligned(size, MinAlign)
}

// AllocAligned returns a chunk of at least size bytes whose address is a
// multiple of align (a power of two, >= 16).
func (a *Allocator) AllocAligned(size, align uint64) (uint64, error) {
	if size == 0 {
		size = MinAlign
	}
	if align < MinAlign || align&(align-1) != 0 {
		return 0, fmt.Errorf("heap: bad alignment %d", align)
	}
	size = mem.AlignUp(size, MinAlign)
	a.own()

	// First try the free list. To scatter allocations, pick uniformly among
	// all fitting spans instead of first-fit.
	if addr, ok := a.takeFromFreeList(size, align); ok {
		a.commit(addr, size)
		return addr, nil
	}

	// Fresh allocation from brk with a small random pre-gap, so consecutive
	// fresh allocations are not byte-adjacent. The gap becomes free space.
	gap := uint64(a.rnd.Intn(4)) * MinAlign
	addr := mem.AlignUp(a.brk+gap, align)
	end := addr + size
	if end > a.limit {
		return 0, fmt.Errorf("heap: out of memory (want %d bytes, brk %#x, limit %#x)", size, a.brk, a.limit)
	}
	if addr > a.brk {
		a.insertFree(span{a.brk, addr - a.brk})
	}
	a.brk = end
	a.commit(addr, size)
	return addr, nil
}

func (a *Allocator) takeFromFreeList(size, align uint64) (uint64, bool) {
	fits := func(s span) (uint64, bool) {
		start := mem.AlignUp(s.addr, align)
		return start, start+size <= s.addr+s.size
	}
	n := 0
	for _, s := range a.free {
		if _, ok := fits(s); ok {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	// Pick the k-th fitting span, counting in address order.
	k := a.rnd.Intn(n)
	idx, addr := 0, uint64(0)
	for i, s := range a.free {
		if start, ok := fits(s); ok {
			if k == 0 {
				idx, addr = i, start
				break
			}
			k--
		}
	}
	s := a.free[idx]
	a.free = append(a.free[:idx], a.free[idx+1:]...)
	if addr > s.addr {
		a.insertFree(span{s.addr, addr - s.addr})
	}
	if rest := (s.addr + s.size) - (addr + size); rest > 0 {
		a.insertFree(span{addr + size, rest})
	}
	return addr, true
}

func (a *Allocator) insertFree(s span) {
	if s.size == 0 {
		return
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr >= s.addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with neighbors.
	if i+1 < len(a.free) && a.free[i].addr+a.free[i].size == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+a.free[i-1].size == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// find returns the index of the first live allocation at or above addr.
func (a *Allocator) find(addr uint64) int {
	return sort.Search(len(a.allocs), func(i int) bool { return a.allocs[i].addr >= addr })
}

// commit records the allocation and maps any pages it newly touches.
func (a *Allocator) commit(addr, size uint64) {
	a.allocs = slices.Insert(a.allocs, a.find(addr), span{addr, size})
	a.liveBytes += size
	a.totalAlloc += size
	a.numAllocs++
	first := (addr - a.base) >> mem.PageShift
	last := (addr + size - 1 - a.base) >> mem.PageShift
	if n := int(last) + 1; n > len(a.refs) {
		a.refs = append(a.refs, make([]uint16, n-len(a.refs))...)
	}
	for p := first; p <= last; p++ {
		a.refs[p]++
		if a.refs[p] == 1 {
			// Fresh page: map it RW. Map cannot fail here because the
			// refcount says it is unmapped and the region is exclusive.
			a.livePages++
			if err := a.space.Map(a.base+p<<mem.PageShift, mem.PageSize, mem.PermRW); err != nil {
				panic(fmt.Sprintf("heap: internal map failure: %v", err))
			}
		}
	}
}

// lookup returns the index of the live allocation starting at addr.
func (a *Allocator) lookup(addr uint64) (int, bool) {
	i := a.find(addr)
	return i, i < len(a.allocs) && a.allocs[i].addr == addr
}

// Free releases the chunk at addr. Freeing an unknown address is an error
// (the simulated program is supposed to be memory-safe; attacker corruption
// happens through the attack API, not through Free).
func (a *Allocator) Free(addr uint64) error {
	i, ok := a.lookup(addr)
	if !ok {
		return fmt.Errorf("heap: free of unknown chunk %#x", addr)
	}
	a.own()
	size := a.allocs[i].size
	a.allocs = slices.Delete(a.allocs, i, i+1)
	a.liveBytes -= size
	a.numFrees++
	first := (addr - a.base) >> mem.PageShift
	last := (addr + size - 1 - a.base) >> mem.PageShift
	for p := first; p <= last; p++ {
		a.refs[p]--
		if a.refs[p] == 0 {
			a.livePages--
			if err := a.space.Unmap(a.base+p<<mem.PageShift, mem.PageSize); err != nil {
				panic(fmt.Sprintf("heap: internal unmap failure: %v", err))
			}
		}
	}
	a.insertFree(span{addr, size})
	return nil
}

// Protect changes the permission of every page fully covered by the chunk at
// addr. The BTDP constructor calls this with PermNone on page-aligned,
// page-sized chunks to create guard pages.
func (a *Allocator) Protect(addr uint64, perm mem.Perm) error {
	i, ok := a.lookup(addr)
	if !ok {
		return fmt.Errorf("heap: protect of unknown chunk %#x", addr)
	}
	size := a.allocs[i].size
	start := mem.AlignUp(addr, mem.PageSize)
	end := mem.AlignDown(addr+size, mem.PageSize)
	if end <= start {
		return fmt.Errorf("heap: chunk %#x+%d covers no full page", addr, size)
	}
	return a.space.Protect(start, end-start, perm)
}

// SizeOf returns the size of the live chunk at addr.
func (a *Allocator) SizeOf(addr uint64) (uint64, bool) {
	if i, ok := a.lookup(addr); ok {
		return a.allocs[i].size, true
	}
	return 0, false
}

// Contains reports whether addr falls inside any live allocation.
func (a *Allocator) Contains(addr uint64) bool {
	// Live allocations never overlap: only the last one starting at or
	// below addr can contain it.
	i := a.find(addr + 1)
	return i > 0 && addr < a.allocs[i-1].addr+a.allocs[i-1].size
}

// Bounds returns the heap region [base, brk) currently in use.
func (a *Allocator) Bounds() (base, brk uint64) { return a.base, a.brk }

// Stats describes allocator usage.
type Stats struct {
	LiveBytes  uint64
	LivePages  int
	TotalAlloc uint64
	NumAllocs  uint64
	NumFrees   uint64
}

// Stats returns a snapshot of allocator counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		LiveBytes:  a.liveBytes,
		LivePages:  a.livePages,
		TotalAlloc: a.totalAlloc,
		NumAllocs:  a.numAllocs,
		NumFrees:   a.numFrees,
	}
}

// PublishMetrics exports the allocator counters as gauges (absolute values,
// so repeated publishes are idempotent). The live-page gauge is the
// RSS-attribution companion to the VM's sampled-RSS metrics: guard pages
// created by the BTDP constructor stay live forever by design.
func (a *Allocator) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("heap.live_bytes").Set(float64(a.liveBytes))
	reg.Gauge("heap.live_pages").Set(float64(a.livePages))
	reg.Gauge("heap.total_alloc_bytes").Set(float64(a.totalAlloc))
	reg.Gauge("heap.allocs").Set(float64(a.numAllocs))
	reg.Gauge("heap.frees").Set(float64(a.numFrees))
	reg.Gauge("heap.brk_bytes").Set(float64(a.brk - a.base))
}
