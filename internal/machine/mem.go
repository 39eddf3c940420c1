// Package machine implements the simulated execution substrate that
// stands in for x86_64/Linux in this reproduction: a 64-bit register
// machine with CISC-style base+index*scale+disp memory operands, a
// sparse segmented address space that raises SIGSEGV/SIGBUS faults, a
// resumable trap mechanism (the analogue of POSIX signal handlers that
// may patch the interrupted context), and a disassembler used by the
// Safeguard runtime to identify the faulting operand.
package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"care/internal/hostenv"
)

// Word is a 64-bit machine word.
type Word = uint64

// Default address-space layout. All images are linked at fixed bases
// (prelinked, in effect), so no load-time relocation is needed and every
// process of the same binary sees identical addresses — which keeps
// fault-injection campaigns deterministic.
const (
	// AppCodeBase is where the main executable's code is mapped.
	AppCodeBase Word = 0x0000_0000_0040_0000
	// AppGlobalBase is where the main executable's globals live.
	AppGlobalBase Word = 0x0000_0000_1000_0000
	// LibCodeBase is the base for the first shared library; subsequent
	// libraries are spaced LibStride apart.
	LibCodeBase Word = 0x0000_4000_0000_0000
	// LibStride separates consecutive library images.
	LibStride Word = 0x0000_0000_1000_0000
	// HeapBase is the bottom of the simulated heap.
	HeapBase Word = 0x0000_2000_0000_0000
	// StackTop is the top of the main stack (stack grows down).
	StackTop Word = 0x0000_7fff_fff0_0000
	// DefaultStackSize is the main stack size in bytes.
	DefaultStackSize = 1 << 20
	// ScratchStackTop is the top of the signal-handler scratch stack
	// used when Safeguard executes a recovery kernel.
	ScratchStackTop Word = 0x0000_7fff_0000_0000
	// ScratchStackSize is the scratch stack size in bytes.
	ScratchStackSize = 64 << 10
	// HeapLimit is the simulated heap's ceiling: the span from HeapBase
	// that allocations (guards and page alignment included) may reach.
	// The largest heap of any workload at study parameters is 86 KB
	// (miniFE at 5x5x4), so the ceiling leaves several hundred times
	// that as headroom while keeping a fault-corrupted malloc size from
	// asking the host for gigabytes.
	HeapLimit Word = 64 << 20
	// HeapGuard is the unmapped gap left between heap allocations so
	// that modest address corruptions fall off the mapped space, as
	// they do between real mmap'd regions.
	HeapGuard Word = 4096
	// AddrMask is the canonical-address mask: addresses with any bit
	// above bit 47 set are never mappable (as on x86_64).
	AddrMask Word = (1 << 48) - 1
)

// Signal identifies a hardware-trap class, mirroring the POSIX signals
// the paper's fault study classifies crashes by.
type Signal uint8

const (
	// SigNone means no signal.
	SigNone Signal = iota
	// SigSEGV is an access to an unmapped address.
	SigSEGV
	// SigBUS is a misaligned access to a mapped address.
	SigBUS
	// SigFPE is an integer divide error.
	SigFPE
	// SigABRT is an abort (assertion failure or abort() host call).
	SigABRT
	// SigILL is an attempt to execute a non-code address.
	SigILL
	// SigTRAP is a deterministic detection trap raised by a
	// detection-only defense pass (PRESAGE chain check, SFI bounds
	// check) via the care_detect host call.
	SigTRAP
)

// String returns the conventional signal name.
func (s Signal) String() string {
	switch s {
	case SigNone:
		return "NONE"
	case SigSEGV:
		return "SIGSEGV"
	case SigBUS:
		return "SIGBUS"
	case SigFPE:
		return "SIGFPE"
	case SigABRT:
		return "SIGABRT"
	case SigILL:
		return "SIGILL"
	case SigTRAP:
		return "SIGTRAP"
	}
	return fmt.Sprintf("SIG(%d)", uint8(s))
}

// Fault describes a failed memory access.
type Fault struct {
	Sig  Signal
	Addr Word
}

// Error implements error.
func (f *Fault) Error() string { return fmt.Sprintf("%s at 0x%x", f.Sig, f.Addr) }

// Segment is a contiguous mapped region.
type Segment struct {
	Base Word
	Data []byte
	Name string
	// Domain is the isolation domain the segment belongs to, assigned
	// from the fixed address-space layout when the segment is mapped
	// (Map/MapShared/MapCOW all tag through insert).
	Domain DomainID
	// ro marks an immutable mapping (code/rodata): stores fault with
	// SIGSEGV, and snapshots neither copy nor restore the segment. The
	// backing Data may be shared by every process of the same binary.
	ro bool
	// cow marks Data as aliasing frozen bytes shared with a snapshot,
	// another process, or a program's initial image; the first store
	// materialises a private copy.
	cow bool
}

// End returns one past the last mapped byte.
func (s *Segment) End() Word { return s.Base + Word(len(s.Data)) }

// ReadOnly reports whether stores to the segment fault.
func (s *Segment) ReadOnly() bool { return s.ro }

// Shared reports whether the segment's bytes still alias frozen data
// (a snapshot, another process, or a program image). A read-only
// segment stays shared forever; a copy-on-write segment stops being
// shared at its first store.
func (s *Segment) Shared() bool { return s.ro || s.cow }

// materialize replaces aliased frozen bytes with a private copy; the
// copy-on-write fault path of a store.
func (s *Segment) materialize() {
	d := make([]byte, len(s.Data))
	copy(d, s.Data)
	s.Data = d
	s.cow = false
}

// Memory is a sparse, segmented 48-bit address space.
type Memory struct {
	segs []*Segment
	// heapNext is the bump pointer for Alloc.
	heapNext Word
	// cache holds the most recently hit segment (cheap 1-entry TLB).
	cache *Segment
	// gen is the mapping generation, bumped whenever a segment is
	// removed or replaced (Unmap, Restore). The execution engine's
	// per-instruction memory inline caches hold *Segment references
	// stamped with the generation they were filled at; a bump
	// invalidates every cache at once. Map never bumps: adding a
	// segment cannot make a cached (segment, generation) pair stale,
	// and COW materialisation keeps segment identity (only Data is
	// swapped), which the store fast path re-checks per access.
	gen uint64
}

// NewMemory returns an empty address space with the heap initialised.
func NewMemory() *Memory {
	return &Memory{heapNext: HeapBase, gen: 1}
}

// insert places a segment into the sorted list after range checks.
func (m *Memory) insert(s *Segment) error {
	base, size := s.Base, len(s.Data)
	if size <= 0 {
		return fmt.Errorf("machine: map %s: empty segment", s.Name)
	}
	if base&^AddrMask != 0 || (base+Word(size))&^AddrMask != 0 || base+Word(size) < base {
		return fmt.Errorf("machine: map %s: non-canonical range [0x%x,0x%x)", s.Name, base, base+Word(size))
	}
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Base >= base })
	if i > 0 && m.segs[i-1].End() > base {
		return fmt.Errorf("machine: map %s at 0x%x overlaps %s", s.Name, base, m.segs[i-1].Name)
	}
	if i < len(m.segs) && m.segs[i].Base < base+Word(size) {
		return fmt.Errorf("machine: map %s at 0x%x overlaps %s", s.Name, base, m.segs[i].Name)
	}
	s.Domain = ClassifyDomain(base)
	m.segs = append(m.segs, nil)
	copy(m.segs[i+1:], m.segs[i:])
	m.segs[i] = s
	return nil
}

// Map adds a zeroed segment of size bytes at base. It returns an error
// if the range is non-canonical, empty, or overlaps an existing segment.
func (m *Memory) Map(base Word, size int, name string) (*Segment, error) {
	s := &Segment{Base: base, Data: make([]byte, size), Name: name}
	if err := m.insert(s); err != nil {
		return nil, err
	}
	return s, nil
}

// MapShared maps immutable bytes at base without copying them: the
// segment is read-only (stores fault with SIGSEGV) and its Data aliases
// the caller's slice, so every process of the same binary shares one
// backing array. The caller must never mutate data afterwards.
func (m *Memory) MapShared(base Word, data []byte, name string) (*Segment, error) {
	s := &Segment{Base: base, Data: data, Name: name, ro: true}
	if err := m.insert(s); err != nil {
		return nil, err
	}
	return s, nil
}

// MapCOW maps frozen bytes at base copy-on-write: reads see the shared
// data, and the first store materialises a private copy. The caller
// must never mutate data afterwards.
func (m *Memory) MapCOW(base Word, data []byte, name string) (*Segment, error) {
	s := &Segment{Base: base, Data: data, Name: name, cow: true}
	if err := m.insert(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Unmap removes a segment previously returned by Map.
func (m *Memory) Unmap(s *Segment) {
	for i, x := range m.segs {
		if x == s {
			m.segs = append(m.segs[:i], m.segs[i+1:]...)
			if m.cache == s {
				m.cache = nil
			}
			m.gen++
			return
		}
	}
}

// Find returns the segment containing addr, or nil.
func (m *Memory) Find(addr Word) *Segment {
	if c := m.cache; c != nil && addr >= c.Base && addr < c.End() {
		return c
	}
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].End() > addr })
	if i < len(m.segs) && m.segs[i].Base <= addr {
		m.cache = m.segs[i]
		return m.segs[i]
	}
	return nil
}

// Segments returns the mapped segments in address order (shared slice;
// callers must not mutate).
func (m *Memory) Segments() []*Segment { return m.segs }

// MappedBytes returns the total mapped size.
func (m *Memory) MappedBytes() int {
	n := 0
	for _, s := range m.segs {
		n += len(s.Data)
	}
	return n
}

// Read reads an 8-byte word; the access must be aligned and mapped.
func (m *Memory) Read(addr Word) (Word, *Fault) {
	s := m.Find(addr)
	if s == nil || addr+8 > s.End() {
		return 0, &Fault{Sig: SigSEGV, Addr: addr}
	}
	if addr&7 != 0 {
		return 0, &Fault{Sig: SigBUS, Addr: addr}
	}
	return binary.LittleEndian.Uint64(s.Data[addr-s.Base:]), nil
}

// Write writes an 8-byte word; the access must be aligned, mapped and
// writable (stores to read-only code segments fault like stores to
// unmapped memory — SIGSEGV, as a store through a corrupted pointer
// into .text would on a real machine).
func (m *Memory) Write(addr Word, v Word) *Fault {
	s := m.Find(addr)
	if s == nil || addr+8 > s.End() || s.ro {
		return &Fault{Sig: SigSEGV, Addr: addr}
	}
	if addr&7 != 0 {
		return &Fault{Sig: SigBUS, Addr: addr}
	}
	if s.cow {
		s.materialize()
	}
	binary.LittleEndian.PutUint64(s.Data[addr-s.Base:], v)
	return nil
}

// ReadFloat reads a word and reinterprets it as a float64.
func (m *Memory) ReadFloat(addr Word) (float64, *Fault) {
	w, f := m.Read(addr)
	return math.Float64frombits(w), f
}

// WriteFloat writes a float64's bit pattern.
func (m *Memory) WriteFloat(addr Word, v float64) *Fault {
	return m.Write(addr, math.Float64bits(v))
}

// Alloc implements the heap: a bump allocator leaving HeapGuard-byte
// unmapped gaps between allocations. A request that would take the
// heap past HeapLimit returns 0 — NULL, as malloc does on ENOMEM —
// without mapping anything, so the outcome is the same on every tier
// and a corrupted size cannot exhaust the host.
func (m *Memory) Alloc(n Word) (Word, error) {
	if n == 0 {
		n = 8
	}
	if n > HeapLimit || m.heapNext-HeapBase > HeapLimit-n {
		return 0, nil
	}
	n = (n + 7) &^ 7
	base := m.heapNext
	if _, err := m.Map(base, int(n), fmt.Sprintf("heap@0x%x", base)); err != nil {
		return 0, err
	}
	m.heapNext = base + n + HeapGuard
	// Keep allocations 4 KiB aligned for a page-like layout.
	m.heapNext = (m.heapNext + 4095) &^ 4095
	return base, nil
}

// memContext adapts Memory to hostenv.Context.
type memContext struct{ m *Memory }

func (c memContext) ReadWord(addr Word) (Word, error) {
	w, f := c.m.Read(addr)
	if f != nil {
		return 0, f
	}
	return w, nil
}

func (c memContext) WriteWord(addr Word, v Word) error {
	if f := c.m.Write(addr, v); f != nil {
		return f
	}
	return nil
}

func (c memContext) Alloc(n Word) (Word, error) { return c.m.Alloc(n) }

// HostContext returns the hostenv.Context view of this memory.
func (m *Memory) HostContext() hostenv.Context { return memContext{m} }

// Snapshot serialises all segments and the heap pointer; Restore brings
// the memory back to that state. This is the substrate used by the
// checkpoint/restart baseline.
type Snapshot struct {
	Segs     []SegSnapshot
	HeapNext Word
}

// SegSnapshot is one segment's saved image.
type SegSnapshot struct {
	Base Word
	Name string
	// Data is the segment's bytes — or, when Size exceeds len(Data), a
	// compacted image's tail: the segment is Size bytes long and the
	// Size-len(Data) bytes in front of Data are zero.
	Data []byte
	// Size is the length of a compacted image's segment; 0 (or
	// len(Data)) means Data is the whole image.
	Size int
	// Domain carries the segment's isolation domain, so the checkpoint
	// layer can build per-domain views of a full snapshot without
	// re-deriving the classification.
	Domain DomainID
}

// Len returns the length of the segment the image restores.
func (ss *SegSnapshot) Len() int {
	if ss.Size > len(ss.Data) {
		return ss.Size
	}
	return len(ss.Data)
}

// Image returns the whole segment image. A compacted image is expanded
// into a fresh buffer; a whole one is returned as is (aliased).
func (ss *SegSnapshot) Image() []byte {
	if ss.Size <= len(ss.Data) {
		return ss.Data
	}
	d := make([]byte, ss.Size)
	copy(d[ss.Size-len(ss.Data):], ss.Data)
	return d
}

// restoreInto returns the bytes a segment restored from the image
// holds, and whether they alias the (frozen) image copy-on-write. A
// whole image is aliased. A compacted one is expanded into a private
// buffer: into live, when the caller passes the private bytes of the
// segment being restored over (same length), so a rollback allocates
// nothing; otherwise into a fresh one.
func (ss *SegSnapshot) restoreInto(live []byte) (data []byte, cow bool) {
	if ss.Size <= len(ss.Data) {
		return ss.Data, true
	}
	start := ss.Size - len(ss.Data)
	if len(live) == ss.Size {
		clear(live[:start])
	} else {
		live = make([]byte, ss.Size)
	}
	copy(live[start:], ss.Data)
	return live, false
}

// private returns the segment's bytes when they are privately owned
// (neither read-only nor aliasing frozen data), else nil.
func (s *Segment) private() []byte {
	if s == nil || s.ro || s.cow {
		return nil
	}
	return s.Data
}

// zeroPage is the comparison block compactImage scans stacks with.
var zeroPage [4096]byte

// capture returns the segment's image for a snapshot. Most segments are
// frozen: flipped copy-on-write and aliased, so the capture copies
// nothing and the live memory copies the whole segment at its next
// store. The main stack is the exception while it is privately owned:
// it is large (DefaultStackSize), written right after every capture,
// and mostly untouched zeros below its deepest frame, so the image
// copies only the part above its zero prefix (in 4 KiB steps) and the
// live stack stays private and writable.
func (s *Segment) capture() SegSnapshot {
	ss := SegSnapshot{Base: s.Base, Name: s.Name, Domain: s.Domain}
	if s.Domain != DomainStack || s.cow {
		s.cow = true
		ss.Data = s.Data
		return ss
	}
	z := 0
	for z+len(zeroPage) <= len(s.Data) && bytes.Equal(s.Data[z:z+len(zeroPage)], zeroPage[:]) {
		z += len(zeroPage)
	}
	ss.Data = make([]byte, len(s.Data)-z)
	copy(ss.Data, s.Data[z:])
	ss.Size = len(s.Data)
	return ss
}

// Snapshot captures the writable memory image, mostly by freezing it
// instead of copying it: writable segments are flipped to copy-on-write
// and the snapshot aliases their bytes, so their data is copied only
// when (and if) the live memory stores to them again. The privately
// owned main stack is copied instead, compacted to the part above its
// zero prefix (see Segment.capture), so a capture costs O(segments)
// plus the used stack. Read-only code segments are excluded — they are
// immutable and shared by construction, exactly as ordinary
// checkpointing skips .text. Snapshots are safe to Restore into many
// concurrent processes: frozen bytes are shared until each diverges,
// and a compacted stack is expanded privately per restore.
func (m *Memory) Snapshot() *Snapshot {
	sn := &Snapshot{HeapNext: m.heapNext}
	// Freezing flips segments from writable to copy-on-write, which
	// invalidates any inline-cache slot that proved in-place
	// writability at fill time (icEntry.wlen), so it bumps the
	// generation exactly like Unmap and Restore. Snapshots are only
	// ever taken between engine invocations, so the engines' hoisted
	// generation stays sound.
	m.gen++
	for _, s := range m.segs {
		if !s.ro {
			sn.Segs = append(sn.Segs, s.capture())
		}
	}
	return sn
}

// Restore replaces the writable memory contents with the snapshot's.
// Read-only code segments are kept in place (code is immutable and not
// part of a snapshot); a restored segment aliases the snapshot's frozen
// bytes copy-on-write, so restoring into N processes shares one backing
// array until each process stores to it — except a compacted stack
// image, which is expanded into a private buffer (the live stack's own,
// when it is private).
func (m *Memory) Restore(sn *Snapshot) {
	// Compacted images expand into the private bytes of the segment
	// they replace, found before the segment list is rebuilt.
	var live [][]byte
	for i := range sn.Segs {
		if ss := &sn.Segs[i]; ss.Size > len(ss.Data) {
			if live == nil {
				live = make([][]byte, len(sn.Segs))
			}
			if s := m.Find(ss.Base); s != nil && s.Base == ss.Base {
				live[i] = s.private()
			}
		}
	}
	kept := m.segs[:0]
	for _, s := range m.segs {
		if s.ro {
			kept = append(kept, s)
		}
	}
	m.segs = kept
	m.cache = nil
	m.gen++
	m.heapNext = sn.HeapNext
	for i, s := range sn.Segs {
		// Re-derive the tag rather than trusting the snapshot: domains
		// are a pure function of the fixed layout, and hand-built
		// snapshots (tests, decoders) may not have filled the field.
		var data []byte
		var cow bool
		if live != nil {
			data, cow = s.restoreInto(live[i])
		} else {
			data, cow = s.restoreInto(nil)
		}
		m.segs = append(m.segs, &Segment{Base: s.Base, Name: s.Name, Data: data, Domain: ClassifyDomain(s.Base), cow: cow})
	}
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
}

// Bytes returns the serialised size of a snapshot (for the C/R cost
// model).
func (sn *Snapshot) Bytes() int {
	n := 16
	for i := range sn.Segs {
		n += 16 + len(sn.Segs[i].Name) + sn.Segs[i].Len()
	}
	return n
}
