package machine

import (
	"testing"
	"testing/quick"
)

func TestMapOverlapRejected(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map(0x1000, 0x1000, "a"); err != nil {
		t.Fatal(err)
	}
	for _, base := range []Word{0x1000, 0x1800, 0x0800, 0x1ff8} {
		if _, err := m.Map(base, 0x1000, "b"); err == nil {
			t.Errorf("overlap at 0x%x accepted", base)
		}
	}
	if _, err := m.Map(0x2000, 0x1000, "c"); err != nil {
		t.Errorf("adjacent map rejected: %v", err)
	}
}

func TestMapRejectsNonCanonical(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map(1<<49, 0x1000, "high"); err == nil {
		t.Error("non-canonical base accepted")
	}
	if _, err := m.Map(AddrMask-8, 0x1000, "wrap"); err == nil {
		t.Error("range crossing the canonical limit accepted")
	}
	if _, err := m.Map(0x1000, 0, "empty"); err == nil {
		t.Error("empty segment accepted")
	}
}

func TestReadWriteFaults(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map(0x10000, 0x1000, "seg"); err != nil {
		t.Fatal(err)
	}
	// Unmapped -> SIGSEGV.
	if _, f := m.Read(0x9000); f == nil || f.Sig != SigSEGV {
		t.Errorf("unmapped read fault = %v", f)
	}
	if f := m.Write(0x11000, 1); f == nil || f.Sig != SigSEGV {
		t.Errorf("past-end write fault = %v", f)
	}
	// Straddling the end -> SIGSEGV.
	if _, f := m.Read(0x10ffc); f == nil || f.Sig != SigSEGV {
		t.Errorf("straddling read fault = %v", f)
	}
	// Misaligned but mapped -> SIGBUS.
	if _, f := m.Read(0x10004); f == nil || f.Sig != SigBUS {
		t.Errorf("misaligned read fault = %v", f)
	}
	// Aligned mapped -> ok.
	if f := m.Write(0x10008, 0xdead); f != nil {
		t.Fatalf("valid write faulted: %v", f)
	}
	if v, f := m.Read(0x10008); f != nil || v != 0xdead {
		t.Fatalf("read back %x, %v", v, f)
	}
}

// TestMemoryReadWriteProperty: any aligned word written within a mapped
// segment reads back identically; float round-trips preserve bits.
func TestMemoryReadWriteProperty(t *testing.T) {
	m := NewMemory()
	const base, size = 0x40000, 1 << 14
	if _, err := m.Map(base, size, "prop"); err != nil {
		t.Fatal(err)
	}
	prop := func(off uint16, v Word) bool {
		addr := base + Word(off)*8%size
		if f := m.Write(addr, v); f != nil {
			return false
		}
		got, f := m.Read(addr)
		return f == nil && got == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	fprop := func(off uint16, v float64) bool {
		addr := base + Word(off)*8%size
		if f := m.WriteFloat(addr, v); f != nil {
			return false
		}
		got, f := m.ReadFloat(addr)
		if f != nil {
			return false
		}
		// NaN payloads must round-trip bit-exactly.
		w1, _ := m.Read(addr)
		if e := m.WriteFloat(addr, got); e != nil {
			return false
		}
		w2, _ := m.Read(addr)
		return w1 == w2
	}
	if err := quick.Check(fprop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocGuardGaps(t *testing.T) {
	m := NewMemory()
	a, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatal("heap not growing")
	}
	if b-a < 64+HeapGuard {
		t.Errorf("allocations too close: gap %d", b-a)
	}
	// The gap must be unmapped.
	if _, f := m.Read(a + 64); f == nil || f.Sig != SigSEGV {
		t.Error("guard gap is mapped")
	}
}

func TestUnmapRemovesSegment(t *testing.T) {
	m := NewMemory()
	s, err := m.Map(0x50000, 0x1000, "tmp")
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Write(0x50000, 1); f != nil {
		t.Fatal(f)
	}
	m.Unmap(s)
	if _, f := m.Read(0x50000); f == nil {
		t.Fatal("read from unmapped segment succeeded")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := NewMemory()
	if _, err := m.Alloc(256); err != nil {
		t.Fatal(err)
	}
	a, _ := m.Alloc(128)
	for i := Word(0); i < 16; i++ {
		if f := m.Write(a+8*i, i*i); f != nil {
			t.Fatal(f)
		}
	}
	sn := m.Snapshot()
	// Mutate after the snapshot.
	for i := Word(0); i < 16; i++ {
		_ = m.Write(a+8*i, 0xffff)
	}
	b, _ := m.Alloc(64) // new segment after snapshot
	_ = b
	m.Restore(sn)
	for i := Word(0); i < 16; i++ {
		v, f := m.Read(a + 8*i)
		if f != nil || v != i*i {
			t.Fatalf("restored word %d = %x (%v)", i, v, f)
		}
	}
	// The post-snapshot segment must be gone.
	if _, f := m.Read(b); f == nil {
		t.Error("post-snapshot segment survived restore")
	}
	// And the heap pointer rolled back: the next Alloc reuses b's spot.
	c, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if c != b {
		t.Errorf("heap pointer not restored: got 0x%x want 0x%x", c, b)
	}
	if sn.Bytes() <= 0 {
		t.Error("snapshot reports no size")
	}
}

func TestFindCacheCoherent(t *testing.T) {
	m := NewMemory()
	s1, _ := m.Map(0x10000, 0x1000, "s1")
	_, _ = m.Map(0x20000, 0x1000, "s2")
	if m.Find(0x10800) != s1 {
		t.Fatal("find miss")
	}
	// The cached segment must not shadow lookups elsewhere.
	if got := m.Find(0x20000); got == nil || got.Name != "s2" {
		t.Fatal("cache shadowed another segment")
	}
	m.Unmap(s1)
	if m.Find(0x10800) != nil {
		t.Fatal("stale cache after unmap")
	}
}

// TestAllocCeiling: requests that would take the heap past HeapLimit
// return NULL without mapping anything, whatever size a corrupted
// argument asks for; requests under the ceiling still succeed.
func TestAllocCeiling(t *testing.T) {
	m := NewMemory()
	for _, n := range []Word{HeapLimit + 1, 1 << 40, 1 << 63, ^Word(0)} {
		if a, err := m.Alloc(n); a != 0 || err != nil {
			t.Fatalf("Alloc(%#x) = %#x, %v; want NULL", n, a, err)
		}
	}
	if len(m.Segments()) != 0 {
		t.Fatalf("refused allocations mapped %d segments", len(m.Segments()))
	}
	a, err := m.Alloc(HeapLimit / 2)
	if a == 0 || err != nil {
		t.Fatalf("Alloc(HeapLimit/2) = %#x, %v", a, err)
	}
	if b, err := m.Alloc(HeapLimit / 2); b != 0 || err != nil {
		t.Fatalf("second half-ceiling Alloc = %#x, %v; want NULL (guards push it past the ceiling)", b, err)
	}
	if b, err := m.Alloc(64); b == 0 || err != nil {
		t.Fatalf("small Alloc under the ceiling = %#x, %v", b, err)
	}
}
