package machine

import (
	"bytes"
	"testing"

	"care/internal/debuginfo"
)

// smallProg assembles a two-instruction program with an initialised
// global, the minimal image exercising both the shared .text and the
// copy-on-write .data mappings.
func smallProg(name string) *Program {
	return &Program{
		Name:     name,
		CodeBase: AppCodeBase,
		Code: []MInstr{
			{Op: MMovImm, Rd: R1, Imm: 7},
			{Op: MHalt, Ra: R1},
		},
		Funcs:      []FuncSym{{Name: "_start", Entry: 0}},
		GlobalBase: AppGlobalBase,
		GlobalInit: []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		Debug:      debuginfo.New(),
	}
}

// TestStoreToCodeFaults is the guard on the shared .text mapping: code
// is readable (a data load straying into .text sees the packed
// encoding, as on a real machine) but a store to it must fault with
// SIGSEGV rather than corrupt the image every process shares.
func TestStoreToCodeFaults(t *testing.T) {
	p := smallProg("app")
	p.SealCode()
	mem := NewMemory()
	img, err := Load(mem, p)
	if err != nil {
		t.Fatal(err)
	}
	if img.CodeSeg == nil || !img.CodeSeg.ReadOnly() {
		t.Fatal("code segment is not mapped read-only")
	}
	want, f := mem.Read(p.CodeBase)
	if f != nil {
		t.Fatalf("read from code faulted: %v", f)
	}
	if want == 0 {
		t.Fatal("code read back as zero; packing is empty")
	}
	if f := mem.Write(p.CodeBase, 0xdead); f == nil || f.Sig != SigSEGV {
		t.Fatalf("store to code fault = %v, want SIGSEGV", f)
	}
	if got, _ := mem.Read(p.CodeBase); got != want {
		t.Fatalf("faulting store mutated code: 0x%x -> 0x%x", want, got)
	}
}

// TestSharedCodeBacking asserts the zero-copy Load: every process of a
// sealed program maps the same .text backing array, while unsealed
// (hand-assembled) programs get private packings.
func TestSharedCodeBacking(t *testing.T) {
	p := smallProg("app")
	p.SealCode()
	m1, m2 := NewMemory(), NewMemory()
	i1, err := Load(m1, p)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := Load(m2, p)
	if err != nil {
		t.Fatal(err)
	}
	if &i1.CodeSeg.Data[0] != &i2.CodeSeg.Data[0] {
		t.Error("two loads of a sealed program do not share the code backing array")
	}
	u := smallProg("unsealed")
	j1, err := Load(NewMemory(), u)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Load(NewMemory(), u)
	if err != nil {
		t.Fatal(err)
	}
	if &j1.CodeSeg.Data[0] == &j2.CodeSeg.Data[0] {
		t.Error("loads of an unsealed program share a packing that was never published")
	}
}

// TestGlobalsCopyOnWrite asserts the .data mapping: loads alias the
// program's initial image until the first store, which materialises a
// private copy without touching the shared bytes other processes read.
func TestGlobalsCopyOnWrite(t *testing.T) {
	p := smallProg("app")
	p.SealCode()
	m1, m2 := NewMemory(), NewMemory()
	i1, err := Load(m1, p)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := Load(m2, p)
	if err != nil {
		t.Fatal(err)
	}
	if !i1.GlobalSeg.Shared() || &i1.GlobalSeg.Data[0] != &i2.GlobalSeg.Data[0] {
		t.Fatal("fresh loads do not share the initial globals image")
	}
	if f := m1.Write(p.GlobalBase, 99); f != nil {
		t.Fatal(f)
	}
	if i1.GlobalSeg.Shared() {
		t.Error("stored-to segment still reports shared")
	}
	if v, _ := m1.Read(p.GlobalBase); v != 99 {
		t.Errorf("writer reads %d, want 99", v)
	}
	if v, _ := m2.Read(p.GlobalBase); v != 1 {
		t.Errorf("sibling process reads %d after the other's store, want 1", v)
	}
	if p.GlobalInit[0] != 1 {
		t.Errorf("store leaked into Program.GlobalInit: %d", p.GlobalInit[0])
	}
}

// TestSnapshotRestoreCOW pins the freeze-alias-materialise cycle behind
// warm starts: a snapshot charges no copy, post-snapshot stores
// materialise privately, and any number of restores share the frozen
// bytes until each diverges.
func TestSnapshotRestoreCOW(t *testing.T) {
	m := NewMemory()
	if _, err := m.Map(0x10000, 0x1000, "seg"); err != nil {
		t.Fatal(err)
	}
	if f := m.Write(0x10000, 1); f != nil {
		t.Fatal(f)
	}
	sn := m.Snapshot()
	if !m.Find(0x10000).Shared() {
		t.Fatal("snapshot did not freeze the live segment")
	}
	// Post-snapshot store: the live memory diverges, the snapshot holds.
	if f := m.Write(0x10000, 2); f != nil {
		t.Fatal(f)
	}
	r1, r2 := NewMemory(), NewMemory()
	r1.Restore(sn)
	r2.Restore(sn)
	if &r1.Find(0x10000).Data[0] != &r2.Find(0x10000).Data[0] {
		t.Error("two restores do not share the frozen backing array")
	}
	if v, _ := r1.Read(0x10000); v != 1 {
		t.Errorf("restored memory reads %d, want the snapshotted 1", v)
	}
	if f := r1.Write(0x10000, 3); f != nil {
		t.Fatal(f)
	}
	if v, _ := r2.Read(0x10000); v != 1 {
		t.Errorf("sibling restore reads %d after the other's store, want 1", v)
	}
	if v, _ := m.Read(0x10000); v != 2 {
		t.Errorf("live memory reads %d, want its diverged 2", v)
	}
	// Restoring a read-only-code memory keeps .text in place.
	p := smallProg("app")
	p.SealCode()
	mc := NewMemory()
	if _, err := Load(mc, p); err != nil {
		t.Fatal(err)
	}
	mc.Restore(sn)
	if mc.Find(p.CodeBase) == nil {
		t.Error("restore dropped the read-only code segment")
	}
	if v, _ := mc.Read(0x10000); v != 1 {
		t.Errorf("restore into a loaded memory reads %d, want 1", v)
	}
}

// TestStepAllocFree is the steady-state interpreter guard: stepping the
// bench loop must not allocate (the src2 closure this replaced cost one
// closure per ALU instruction).
func TestStepAllocFree(t *testing.T) {
	cpu := benchLoop(t, 1<<62)
	allocs := testing.AllocsPerRun(50, func() {
		if st := cpu.Run(1024); st != StatusLimit {
			t.Fatalf("status %v", st)
		}
	})
	if allocs != 0 {
		t.Errorf("step path allocates %.1f times per 1024-step run, want 0", allocs)
	}
}

// TestStackSnapshotCompacted: a private main stack is captured as the
// part above its zero prefix and stays private (no copy-on-write fault
// at the next push); restoring — in place over the live stack, or into
// a fresh memory — reproduces every byte, including zeroing what the
// live stack wrote below the captured part since, and sizes stay the
// segment's.
func TestStackSnapshotCompacted(t *testing.T) {
	m := NewMemory()
	st, err := m.Map(StackTop-DefaultStackSize, DefaultStackSize, "stack")
	if err != nil {
		t.Fatal(err)
	}
	top := StackTop - 8
	for i := Word(0); i < 64; i++ {
		if f := m.Write(top-8*i, 0x1000+i); f != nil {
			t.Fatal(f)
		}
	}
	want := append([]byte(nil), st.Data...)
	sn := m.Snapshot()
	var img *SegSnapshot
	for i := range sn.Segs {
		if sn.Segs[i].Base == st.Base {
			img = &sn.Segs[i]
		}
	}
	if img == nil || img.Len() != DefaultStackSize || len(img.Data) >= DefaultStackSize/2 {
		t.Fatalf("stack image: %d bytes kept of %d", len(img.Data), img.Len())
	}
	if st.Shared() {
		t.Fatal("capturing the private stack froze it")
	}
	if got := sn.Bytes(); got != 16+16+len("stack")+DefaultStackSize {
		t.Fatalf("snapshot Bytes = %d, want the whole segment counted", got)
	}
	// Diverge: overwrite the captured part and write far below it.
	deep := StackTop - DefaultStackSize + 64
	for _, a := range []Word{top, top - 8*63, deep} {
		if f := m.Write(a, 0xdead); f != nil {
			t.Fatal(f)
		}
	}
	live := &m.Find(st.Base).Data[0]
	m.Restore(sn)
	s := m.Find(st.Base)
	if !bytes.Equal(s.Data, want) {
		t.Fatal("in-place restore differs from the captured stack")
	}
	if &s.Data[0] != live || s.Shared() {
		t.Fatal("restoring over the private live stack allocated a new one")
	}
	// The same image into a fresh memory: a private expanded copy.
	m2 := NewMemory()
	m2.Restore(sn)
	if s2 := m2.Find(st.Base); s2 == nil || !bytes.Equal(s2.Data, want) || s2.Shared() {
		t.Fatal("restore into a fresh memory differs")
	}
	// And a stack-domain rewind, in place.
	if f := m.Write(deep, 7); f != nil {
		t.Fatal(f)
	}
	if err := m.RestoreDomain(sn.DomainView(DomainStack)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Find(st.Base).Data, want) {
		t.Fatal("stack-domain rewind differs from the captured stack")
	}
}
