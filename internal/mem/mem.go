// Package mem implements the simulated 64-bit address space that the whole
// system runs on: the loader maps text/data segments into it, the runtime
// allocates heap and stack from it, the VM fetches and executes code out of
// it, and the attacker leaks and corrupts it.
//
// The model is a set of dense page tables of 4 KiB pages, each page with
// independent R/W/X permissions. Two permission combinations matter for the
// paper:
//
//   - execute-only text (X without R), the leakage-resilience prerequisite
//     R2C assumes (Section 3): instruction fetch succeeds, data reads fault;
//   - unreadable guard pages (no permissions at all), which back BTDPs
//     (Section 5.2): any access faults immediately, which is the reactive
//     booby-trap signal.
//
// All multi-byte accesses are little-endian, matching x86_64.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Page geometry mirrors x86_64 4 KiB pages.
const (
	PageSize  = 4096
	PageShift = 12
	PageMask  = PageSize - 1
)

// WordSize is the machine word size in bytes (x86_64).
const WordSize = 8

// Perm is a page permission bit set.
type Perm uint8

const (
	// PermRead allows data loads.
	PermRead Perm = 1 << iota
	// PermWrite allows data stores.
	PermWrite
	// PermExec allows instruction fetch.
	PermExec

	// PermNone marks a mapped but fully inaccessible page (a guard page).
	PermNone Perm = 0
	// PermRW is the usual data permission.
	PermRW = PermRead | PermWrite
	// PermRX is conventional text.
	PermRX = PermRead | PermExec
	// PermXOnly is execute-only text: fetchable, not readable. This is the
	// execute-only memory R2C's threat model assumes for the text section.
	PermXOnly = PermExec
)

// String renders the permission in the familiar rwx form.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind says what kind of access caused a fault.
type AccessKind int

const (
	// AccessRead is a data load.
	AccessRead AccessKind = iota
	// AccessWrite is a data store.
	AccessWrite
	// AccessExec is an instruction fetch.
	AccessExec
)

func (a AccessKind) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "unknown"
}

// Fault is the simulated SIGSEGV. The runtime's fault handler inspects it to
// decide whether a booby trap fired (Section 4.2: "dereferencing a BTDP
// causes an immediate fault, giving defenders a way to respond").
type Fault struct {
	Addr     uint64
	Access   AccessKind
	Unmapped bool // true: no page; false: permission violation
	Perm     Perm // permissions of the page, when mapped
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Unmapped {
		return fmt.Sprintf("segfault: %s of unmapped address %#x", f.Access, f.Addr)
	}
	return fmt.Sprintf("segfault: %s of %#x violates page permission %s", f.Access, f.Addr, f.Perm)
}

// page is one page-table entry; the zero value is an unmapped page.
type page struct {
	data   *[PageSize]byte // nil until first touched: reads see zeros
	perm   Perm
	mapped bool
	// shared marks data as shared copy-on-write with another Space (see
	// CloneTo): the first write through this entry copies it out first.
	shared bool
}

// zeroPage backs reads of mapped pages nothing has written yet.
var zeroPage [PageSize]byte

// region is a dense run of page-table entries starting at page number first.
// Unmapped pages inside the run are zero entries, so a region's table is
// sized to its highest mapped page, not to the address range it may grow
// into (the heap reserves gigabytes but maps up to its brk).
type region struct {
	first uint64
	pages []page
}

// regionGap is how many unmapped pages a region's table may span to reach a
// newly mapped page before a separate region is started.
const regionGap = 64

// Space is a simulated address space: a handful of dense per-region page
// tables (text, data, heap, stack), found by a short linear scan.
type Space struct {
	regions []region // sorted by first, non-overlapping
	// table is the storage CloneTo carves the regions of a copy from, and
	// spare holds private page buffers taken back from unmapped pages and
	// from the space's previous contents; first writes draw from spare
	// before allocating.
	table []page
	spare []*[PageSize]byte

	// RSS accounting (Section 6.2.5 reproduces both the maxrss and the
	// sampled-RSS methodology). A page counts toward RSS once mapped.
	rssPages    int
	maxRSSPages int
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{}
}

// CloneTo makes dst a copy-on-write copy of s: the page tables are copied
// flat and page bytes are shared until either space writes them. dst's
// previous contents are discarded, so nothing may still use dst or a slab
// it returned; its storage is reused, the page-table memory for the copy's
// tables and its private page buffers for the copy's first writes.
//
// CloneTo marks s's pages shared too — a no-op once they are — so
// concurrent CloneTos from a space nobody writes any more (a process
// template) are safe. Cloning a space a running VM caches slabs of is not:
// its next write would move the page.
func (s *Space) CloneTo(dst *Space) {
	spare, total := dst.spare, 0
	for _, r := range dst.regions {
		for i := range r.pages {
			if p := &r.pages[i]; p.data != nil && !p.shared {
				spare = append(spare, p.data)
			}
		}
	}
	for _, r := range s.regions {
		total += len(r.pages)
	}
	table := dst.table
	if cap(table) < total {
		table = make([]page, total)
	}
	*dst = Space{regions: dst.regions[:0], table: table, spare: spare, rssPages: s.rssPages, maxRSSPages: s.maxRSSPages}
	off := 0
	for _, r := range s.regions {
		for j := range r.pages {
			if p := &r.pages[j]; p.data != nil && !p.shared {
				p.shared = true
			}
		}
		// A full slice expression, so a region that grows reallocates
		// instead of running into the next one.
		n := len(r.pages)
		pages := table[off : off+n : off+n]
		copy(pages, r.pages)
		dst.regions = append(dst.regions, region{first: r.first, pages: pages})
		off += n
	}
}

// entry returns the mapped page numbered pn, or nil.
func (s *Space) entry(pn uint64) *page {
	for i := range s.regions {
		r := &s.regions[i]
		if off := pn - r.first; off < uint64(len(r.pages)) {
			if p := &r.pages[off]; p.mapped {
				return p
			}
			return nil
		}
	}
	return nil
}

// span returns the table entries for pages [pn, pn+n), growing the region
// that reaches pn (or starting a new one) and merging any region the grown
// table runs into.
func (s *Space) span(pn, n uint64) []page {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].first > pn }) - 1
	if i < 0 || pn > s.regions[i].first+uint64(len(s.regions[i].pages))+regionGap {
		i++
		s.regions = slices.Insert(s.regions, i, region{first: pn})
	}
	end := pn + n
	for i+1 < len(s.regions) && s.regions[i+1].first < end {
		next := s.regions[i+1]
		s.regions[i].grow(next.first)
		s.regions[i].pages = append(s.regions[i].pages, next.pages...)
		s.regions = slices.Delete(s.regions, i+1, i+2)
	}
	r := &s.regions[i]
	r.grow(end)
	return r.pages[pn-r.first : end-r.first]
}

func (r *region) grow(end uint64) {
	if have := r.first + uint64(len(r.pages)); end > have {
		r.pages = append(r.pages, make([]page, end-have)...)
	}
}

// Map creates pages covering [addr, addr+size) with the given permissions.
// addr and size must be page-aligned. Mapping an already-mapped page is an
// error: segment placement bugs should fail loudly, not silently overlap.
func (s *Space) Map(addr, size uint64, perm Perm) error {
	if addr&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("mem: unaligned map addr=%#x size=%#x", addr, size)
	}
	first, n := addr>>PageShift, size>>PageShift
	for i := uint64(0); i < n; i++ {
		if s.entry(first+i) != nil {
			return fmt.Errorf("mem: page %#x already mapped", (first+i)<<PageShift)
		}
	}
	if n == 0 {
		return nil
	}
	ps := s.span(first, n)
	for i := range ps {
		ps[i] = page{perm: perm, mapped: true}
	}
	s.rssPages += int(n)
	if s.rssPages > s.maxRSSPages {
		s.maxRSSPages = s.rssPages
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+size).
func (s *Space) Unmap(addr, size uint64) error {
	if addr&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("mem: unaligned unmap addr=%#x size=%#x", addr, size)
	}
	first, n := addr>>PageShift, size>>PageShift
	for i := uint64(0); i < n; i++ {
		if s.entry(first+i) == nil {
			return fmt.Errorf("mem: unmap of unmapped page %#x", (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		p := s.entry(first + i)
		if p.data != nil && !p.shared {
			s.spare = append(s.spare, p.data)
		}
		*p = page{}
	}
	// Trim unmapped tails so each table stays sized to its highest mapped
	// page; a region left empty is dropped.
	for i := len(s.regions) - 1; i >= 0; i-- {
		r := &s.regions[i]
		for len(r.pages) > 0 && !r.pages[len(r.pages)-1].mapped {
			r.pages = r.pages[:len(r.pages)-1]
		}
		if len(r.pages) == 0 {
			s.regions = slices.Delete(s.regions, i, i+1)
		}
	}
	s.rssPages -= int(n)
	return nil
}

// Protect changes the permissions of the pages covering [addr, addr+size).
// This is the simulated mprotect; the BTDP constructor uses it to revoke
// read access from guard pages (Section 5.2).
func (s *Space) Protect(addr, size uint64, perm Perm) error {
	if addr&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("mem: unaligned protect addr=%#x size=%#x", addr, size)
	}
	first, n := addr>>PageShift, size>>PageShift
	for i := uint64(0); i < n; i++ {
		if s.entry(first+i) == nil {
			return fmt.Errorf("mem: protect of unmapped page %#x", (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		s.entry(first + i).perm = perm
	}
	return nil
}

// IsMapped reports whether addr falls on a mapped page.
func (s *Space) IsMapped(addr uint64) bool {
	return s.entry(addr>>PageShift) != nil
}

// PermAt returns the permissions of the page containing addr.
func (s *Space) PermAt(addr uint64) (Perm, bool) {
	p := s.entry(addr >> PageShift)
	if p == nil {
		return 0, false
	}
	return p.perm, true
}

func (s *Space) check(addr uint64, access AccessKind) (*page, error) {
	p := s.entry(addr >> PageShift)
	if p == nil {
		return nil, &Fault{Addr: addr, Access: access, Unmapped: true}
	}
	var need Perm
	switch access {
	case AccessRead:
		need = PermRead
	case AccessWrite:
		need = PermWrite
	case AccessExec:
		need = PermExec
	}
	if p.perm&need == 0 {
		return nil, &Fault{Addr: addr, Access: access, Perm: p.perm}
	}
	return p, nil
}

// read returns the page's bytes for reading, without allocating.
func (p *page) read() *[PageSize]byte {
	if p.data == nil {
		return &zeroPage
	}
	return p.data
}

// writable returns the page's bytes for writing: a page shared
// copy-on-write is copied out first, and an untouched page is allocated.
func (s *Space) writable(p *page) *[PageSize]byte {
	if p.data != nil && !p.shared {
		return p.data
	}
	var d *[PageSize]byte
	if n := len(s.spare); n > 0 {
		d = s.spare[n-1]
		s.spare = s.spare[:n-1]
		if p.data == nil {
			*d = [PageSize]byte{}
		}
	} else {
		d = new([PageSize]byte)
	}
	if p.data != nil {
		*d = *p.data
	}
	p.data, p.shared = d, false
	return d
}

// Read copies len(buf) bytes starting at addr into buf, honoring page
// permissions. A fault aborts the read; buf contents are then unspecified.
func (s *Space) Read(addr uint64, buf []byte) error {
	return s.access(addr, buf, AccessRead)
}

// Write copies buf into memory at addr, honoring page permissions.
func (s *Space) Write(addr uint64, buf []byte) error {
	return s.access(addr, buf, AccessWrite)
}

func (s *Space) access(addr uint64, buf []byte, kind AccessKind) error {
	for done := 0; done < len(buf); {
		p, err := s.check(addr, kind)
		if err != nil {
			return err
		}
		off := int(addr & PageMask)
		n := PageSize - off
		if rem := len(buf) - done; n > rem {
			n = rem
		}
		if kind == AccessWrite {
			copy(s.writable(p)[off:off+n], buf[done:done+n])
		} else {
			copy(buf[done:done+n], p.read()[off:off+n])
		}
		done += n
		addr += uint64(n)
	}
	return nil
}

// Read64 loads a little-endian 64-bit word.
func (s *Space) Read64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := s.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 stores a little-endian 64-bit word.
func (s *Space) Write64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(addr, b[:])
}

// CheckExec verifies that addr is fetchable (mapped with PermExec).
func (s *Space) CheckExec(addr uint64) error {
	_, err := s.check(addr, AccessExec)
	return err
}

// DebugRead reads memory ignoring permissions. It exists for test assertions
// and human-readable dumps only; neither the VM nor the attacker uses it.
func (s *Space) DebugRead(addr uint64, buf []byte) error {
	for done := 0; done < len(buf); {
		p := s.entry(addr >> PageShift)
		if p == nil {
			return &Fault{Addr: addr, Access: AccessRead, Unmapped: true}
		}
		off := int(addr & PageMask)
		n := PageSize - off
		if rem := len(buf) - done; n > rem {
			n = rem
		}
		copy(buf[done:done+n], p.read()[off:off+n])
		done += n
		addr += uint64(n)
	}
	return nil
}

// DebugRead64 is DebugRead for a single word.
func (s *Space) DebugRead64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := s.DebugRead(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Slab exposes the backing bytes and permission of the page containing
// addr, for fast word access by the VM (which performs its own permission
// checks and caches the slab in a software TLB). The VM writes through the
// returned page, so a page shared copy-on-write is made private first. The
// page aliases page storage: callers must invalidate cached slabs after
// Unmap/Protect.
func (s *Space) Slab(addr uint64) (*[PageSize]byte, Perm, bool) {
	p := s.entry(addr >> PageShift)
	if p == nil {
		return nil, 0, false
	}
	return s.writable(p), p.perm, true
}

// RSSPages returns the current resident page count.
func (s *Space) RSSPages() int { return s.rssPages }

// MaxRSSPages returns the peak resident page count — the simulated maxrss
// rusage metric the paper's SPEC memory methodology reads (Section 6.2.5).
func (s *Space) MaxRSSPages() int { return s.maxRSSPages }

// RSSBytes returns the current resident set size in bytes.
func (s *Space) RSSBytes() uint64 { return uint64(s.rssPages) * PageSize }

// MaxRSSBytes returns the peak resident set size in bytes.
func (s *Space) MaxRSSBytes() uint64 { return uint64(s.maxRSSPages) * PageSize }

// Region describes one contiguous run of identically-permissioned pages.
type Region struct {
	Addr uint64
	Size uint64
	Perm Perm
}

// Regions returns the mapped regions sorted by address, coalescing adjacent
// pages with identical permissions — the simulated /proc/self/maps.
func (s *Space) Regions() []Region {
	var out []Region
	for _, r := range s.regions {
		for i, p := range r.pages {
			if !p.mapped {
				continue
			}
			addr := (r.first + uint64(i)) << PageShift
			if len(out) > 0 {
				last := &out[len(out)-1]
				if last.Addr+last.Size == addr && last.Perm == p.perm {
					last.Size += PageSize
					continue
				}
			}
			out = append(out, Region{Addr: addr, Size: PageSize, Perm: p.perm})
		}
	}
	return out
}

// AlignUp rounds v up to the next multiple of align (a power of two).
func AlignUp(v, align uint64) uint64 {
	return (v + align - 1) &^ (align - 1)
}

// AlignDown rounds v down to a multiple of align (a power of two).
func AlignDown(v, align uint64) uint64 {
	return v &^ (align - 1)
}
