package mem

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, s *Space, addr, size uint64, perm Perm) {
	t.Helper()
	if err := s.Map(addr, size, perm); err != nil {
		t.Fatal(err)
	}
}

func TestMapReadWriteRoundTrip(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	data := []byte("hello, address space")
	if err := s.Write(0x1100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.Read(0x1100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	addr := uint64(0x1000 + PageSize - 3)
	if err := s.Write64(addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("cross-page word = %#x", v)
	}
}

func TestLittleEndian(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	if err := s.Write64(0x1000, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 8)
	if err := s.Read(0x1000, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x08 || b[7] != 0x01 {
		t.Fatalf("not little endian: % x", b)
	}
}

func TestUnmappedFault(t *testing.T) {
	s := NewSpace()
	_, err := s.Read64(0xdead000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if !f.Unmapped || f.Access != AccessRead {
		t.Fatalf("unexpected fault: %+v", f)
	}
}

func TestPermissionFaults(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRead)

	if err := s.Write64(0x1000, 1); err == nil {
		t.Fatal("write to read-only page succeeded")
	}
	if err := s.CheckExec(0x1000); err == nil {
		t.Fatal("exec of non-exec page succeeded")
	}
	if _, err := s.Read64(0x1000); err != nil {
		t.Fatalf("read of readable page failed: %v", err)
	}
}

func TestExecuteOnlyMemory(t *testing.T) {
	// The leakage-resilience property: execute-only text can be fetched
	// but a JIT-ROP style read of it faults.
	s := NewSpace()
	mustMap(t, s, 0x400000, PageSize, PermXOnly)
	if err := s.CheckExec(0x400000); err != nil {
		t.Fatalf("fetch from execute-only page failed: %v", err)
	}
	_, err := s.Read64(0x400000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("read of execute-only page did not fault: %v", err)
	}
	if f.Unmapped {
		t.Fatal("fault should be a permission violation, not unmapped")
	}
}

func TestGuardPageFaultsOnEverything(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x7000, PageSize, PermNone)
	if _, err := s.Read64(0x7000); err == nil {
		t.Fatal("guard page read succeeded")
	}
	if err := s.Write64(0x7100, 0); err == nil {
		t.Fatal("guard page write succeeded")
	}
	if err := s.CheckExec(0x7200); err == nil {
		t.Fatal("guard page exec succeeded")
	}
}

func TestProtectRevokesAccess(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	if err := s.Write64(0x1000, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(0x1000, PageSize, PermNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read64(0x1000); err == nil {
		t.Fatal("read after protect(None) succeeded")
	}
	// DebugRead bypasses permissions and still sees the value.
	v, err := s.DebugRead64(0x1000)
	if err != nil || v != 42 {
		t.Fatalf("DebugRead64 = %d, %v", v, err)
	}
}

func TestDoubleMapRejected(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	if err := s.Map(0x2000, PageSize, PermRW); err == nil {
		t.Fatal("overlapping map succeeded")
	}
}

func TestUnalignedMapRejected(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1001, PageSize, PermRW); err == nil {
		t.Fatal("unaligned map succeeded")
	}
	if err := s.Map(0x1000, 100, PermRW); err == nil {
		t.Fatal("unaligned size succeeded")
	}
}

func TestUnmapFreesAndFaults(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	if err := s.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read64(0x1000); err == nil {
		t.Fatal("read of unmapped page succeeded")
	}
	if err := s.Unmap(0x1000, PageSize); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestRSSAccounting(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 4*PageSize, PermRW)
	if s.RSSPages() != 4 || s.MaxRSSPages() != 4 {
		t.Fatalf("rss=%d max=%d", s.RSSPages(), s.MaxRSSPages())
	}
	if err := s.Unmap(0x1000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if s.RSSPages() != 2 {
		t.Fatalf("rss after unmap = %d", s.RSSPages())
	}
	// maxrss is a high-water mark: it must not decrease.
	if s.MaxRSSPages() != 4 {
		t.Fatalf("maxrss dropped to %d", s.MaxRSSPages())
	}
	mustMap(t, s, 0x100000, 8*PageSize, PermRW)
	if s.MaxRSSPages() != 10 {
		t.Fatalf("maxrss = %d, want 10", s.MaxRSSPages())
	}
}

func TestRegionsCoalesce(t *testing.T) {
	s := NewSpace()
	mustMap(t, s, 0x1000, 2*PageSize, PermRW)
	mustMap(t, s, 0x3000, PageSize, PermXOnly)
	mustMap(t, s, 0x4000, PageSize, PermXOnly)
	mustMap(t, s, 0x6000, PageSize, PermRW)
	r := s.Regions()
	want := []Region{
		{0x1000, 2 * PageSize, PermRW},
		{0x3000, 2 * PageSize, PermXOnly},
		{0x6000, PageSize, PermRW},
	}
	if len(r) != len(want) {
		t.Fatalf("regions = %+v", r)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("region %d = %+v, want %+v", i, r[i], want[i])
		}
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		PermNone:  "---",
		PermRead:  "r--",
		PermRW:    "rw-",
		PermRX:    "r-x",
		PermXOnly: "--x",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(p), p.String(), want)
		}
	}
}

func TestAlign(t *testing.T) {
	if AlignUp(1, PageSize) != PageSize || AlignUp(PageSize, PageSize) != PageSize {
		t.Fatal("AlignUp wrong")
	}
	if AlignDown(PageSize+1, PageSize) != PageSize || AlignDown(0, PageSize) != 0 {
		t.Fatal("AlignDown wrong")
	}
}

func TestReadWriteQuick(t *testing.T) {
	// Property: any word written inside a mapped RW window reads back.
	s := NewSpace()
	const base, size = 0x10000, 16 * PageSize
	mustMap(t, s, base, size, PermRW)
	err := quick.Check(func(off uint32, v uint64) bool {
		addr := base + uint64(off)%(size-8)
		if err := s.Write64(addr, v); err != nil {
			return false
		}
		got, err := s.Read64(addr)
		return err == nil && got == v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartialFaultStopsAccess(t *testing.T) {
	// A write that starts on a writable page and runs into an unmapped one
	// must fault rather than silently truncate.
	s := NewSpace()
	mustMap(t, s, 0x1000, PageSize, PermRW)
	buf := make([]byte, 16)
	if err := s.Write(0x1000+PageSize-8, buf); err == nil {
		t.Fatal("write spilling into unmapped page succeeded")
	}
}

// TestCloneToCopyOnWrite: a clone shares page bytes until it writes them —
// through Write or through a Slab the VM writes into — and its page-table
// edits (growing a region, unmapping, protecting) never reach the source.
// Reusing the clone's storage for a second copy starts from the source
// again.
func TestCloneToCopyOnWrite(t *testing.T) {
	src := NewSpace()
	mustMap(t, src, 0x10000, 2*PageSize, PermRW)
	mustMap(t, src, 0x10000+4*PageSize, PageSize, PermRW) // same table, after a gap
	mustMap(t, src, 0x7000_0000, PageSize, PermRW)        // a region of its own
	if err := src.Write64(0x10008, 11); err != nil {
		t.Fatal(err)
	}
	if err := src.Write64(0x7000_0000, 22); err != nil {
		t.Fatal(err)
	}

	c := &Space{}
	src.CloneTo(c)
	if v, _ := c.Read64(0x10008); v != 11 {
		t.Fatalf("clone reads %d, want the source's 11", v)
	}
	if err := c.Write64(0x10008, 33); err != nil {
		t.Fatal(err)
	}
	slab, _, _ := c.Slab(0x7000_0000)
	slab[0] = 44
	mustMap(t, c, 0x10000+2*PageSize, PageSize, PermRW) // grows into the gap
	mustMap(t, c, 0x10000+5*PageSize, PageSize, PermRW) // grows the table
	if err := c.Unmap(0x10000+4*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := c.Protect(0x10000, PageSize, PermNone); err != nil {
		t.Fatal(err)
	}

	if v, _ := src.Read64(0x10008); v != 11 {
		t.Errorf("source sees the clone's Write: %d", v)
	}
	if v, _ := src.Read64(0x7000_0000); v != 22 {
		t.Errorf("source sees the clone's slab write: %d", v)
	}
	if src.IsMapped(0x10000+2*PageSize) || src.IsMapped(0x10000+5*PageSize) || !src.IsMapped(0x10000+4*PageSize) {
		t.Errorf("clone's map/unmap reached the source: %v", src.Regions())
	}
	if p, _ := src.PermAt(0x10000); p != PermRW {
		t.Errorf("clone's protect reached the source: %v", p)
	}
	if v, _ := c.Read64(0x7000_0000); v != 44 {
		t.Errorf("clone lost its slab write: %d", v)
	}

	want := src.Regions()
	src.CloneTo(c)
	if got := c.Regions(); !reflect.DeepEqual(got, want) {
		t.Errorf("reused clone regions %v, want %v", got, want)
	}
	for addr, want := range map[uint64]uint64{0x10008: 11, 0x7000_0000: 22, 0x10000 + 4*PageSize: 0} {
		if v, _ := c.Read64(addr); v != want {
			t.Errorf("reused clone reads %d at %#x, want %d", v, addr, want)
		}
	}
}
