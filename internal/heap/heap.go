// Package heap defines the object layout of the stable heap and the
// allocation machinery of a copying collector: descriptors, forwarding
// pointers, semispaces with the two-ended to-space layout of Fig. 3.3, and
// the Last Object Table that lets the collector scan an arbitrary page
// (§3.2.1).
//
// An object is a descriptor word followed by its pointer fields and then
// its data fields:
//
//	word 0:              descriptor (type, #ptrs, #data, AS/LS flags)
//	words 1..n:          pointer fields (word.Addr each; 0 is nil)
//	words n+1..n+m:      uninterpreted data words
//
// When the collector copies an object it overwrites the descriptor word
// with a forwarding pointer — exactly the destructive update whose crash
// consequences (Figs. 3.4, 3.5) the atomic collector's copy records exist
// to repair.
package heap

import (
	"fmt"

	"stableheap/internal/vm"
	"stableheap/internal/word"
)

// Field-width limits of the descriptor packing.
const (
	MaxPtrs   = 1<<20 - 1
	MaxData   = 1<<20 - 1
	MaxTypeID = 1<<16 - 1
)

// Descriptor is the packed first word of every object.
//
// Layout (not forwarded): bit 0 clear; bit 1 = AS ("accessible from a
// stable root"); bit 2 = LS ("newly stable, still in the volatile area");
// bits 8–27 = #pointer fields; bits 28–47 = #data words; bits 48–63 = type.
//
// Layout (forwarded): bit 0 set; the word is the to-space address of the
// copy with the low bit set (object addresses are word aligned, so the low
// three bits of a real address are zero).
type Descriptor uint64

const (
	flagForwarded = 1 << 0
	flagAS        = 1 << 1
	flagLS        = 1 << 2
	shiftPtrs     = 8
	shiftData     = 28
	shiftType     = 48
	maskField     = 1<<20 - 1
)

// NewDescriptor builds a descriptor for an object with the given type id,
// pointer-field count and data-word count.
func NewDescriptor(typeID uint16, nptrs, ndata int) Descriptor {
	if nptrs < 0 || nptrs > MaxPtrs || ndata < 0 || ndata > MaxData {
		panic(fmt.Sprintf("heap: object shape out of range (%d ptrs, %d data)", nptrs, ndata))
	}
	return Descriptor(uint64(nptrs)<<shiftPtrs | uint64(ndata)<<shiftData | uint64(typeID)<<shiftType)
}

// ForwardingDescriptor builds the descriptor word that forwards to to.
func ForwardingDescriptor(to word.Addr) Descriptor {
	if !to.Aligned() || to.IsNil() {
		panic(fmt.Sprintf("heap: bad forwarding target %v", to))
	}
	return Descriptor(uint64(to) | flagForwarded)
}

// Forwarded reports whether the word is a forwarding pointer.
func (d Descriptor) Forwarded() bool { return d&flagForwarded != 0 }

// ForwardAddr returns the forwarding target; the descriptor must be
// forwarded.
func (d Descriptor) ForwardAddr() word.Addr {
	if !d.Forwarded() {
		panic("heap: ForwardAddr on unforwarded descriptor")
	}
	return word.Addr(d &^ 7)
}

// NPtrs returns the number of pointer fields.
func (d Descriptor) NPtrs() int { return int(d >> shiftPtrs & maskField) }

// NData returns the number of data words.
func (d Descriptor) NData() int { return int(d >> shiftData & maskField) }

// TypeID returns the object's type tag.
func (d Descriptor) TypeID() uint16 { return uint16(d >> shiftType) }

// SizeWords returns the object's total size including the descriptor word.
func (d Descriptor) SizeWords() int { return 1 + d.NPtrs() + d.NData() }

// AS reports the "accessible from stable" bit (Ch. 5).
func (d Descriptor) AS() bool { return d&flagAS != 0 }

// LS reports the "newly stable, not yet moved" bit (Ch. 5).
func (d Descriptor) LS() bool { return d&flagLS != 0 }

// WithAS returns the descriptor with the AS bit set to v.
func (d Descriptor) WithAS(v bool) Descriptor {
	if v {
		return d | flagAS
	}
	return d &^ flagAS
}

// WithLS returns the descriptor with the LS bit set to v.
func (d Descriptor) WithLS(v bool) Descriptor {
	if v {
		return d | flagLS
	}
	return d &^ flagLS
}

// PtrOffset returns the byte offset of pointer field i from the object
// start.
func PtrOffset(i int) int { return (1 + i) * word.WordSize }

// DataOffset returns the byte offset of data word j for an object with
// nptrs pointer fields.
func DataOffset(nptrs, j int) int { return (1 + nptrs + j) * word.WordSize }

// Heap provides typed access to objects stored in a one-level store. It
// performs no read-barrier checks: callers acting for the mutator are
// responsible for EnsureAccessible (the transaction layer does this).
type Heap struct {
	mem *vm.Store
}

// New wraps a store.
func New(mem *vm.Store) *Heap { return &Heap{mem: mem} }

// Descriptor reads the descriptor word of the object at a.
func (h *Heap) Descriptor(a word.Addr) Descriptor {
	return Descriptor(h.mem.ReadWord(a))
}

// SetDescriptor writes the descriptor word (lsn covers the modification;
// word.NilLSN for unlogged volatile-area writes).
func (h *Heap) SetDescriptor(a word.Addr, d Descriptor, lsn word.LSN) {
	h.mem.WriteWord(a, uint64(d), lsn)
}

// Ptr reads pointer field i of the object at a.
func (h *Heap) Ptr(a word.Addr, i int) word.Addr {
	return word.Addr(h.mem.ReadWord(a + word.Addr(PtrOffset(i))))
}

// SetPtr writes pointer field i.
func (h *Heap) SetPtr(a word.Addr, i int, v word.Addr, lsn word.LSN) {
	h.mem.WriteWord(a+word.Addr(PtrOffset(i)), uint64(v), lsn)
}

// Data reads data word j of the object at a (whose descriptor must be d).
func (h *Heap) Data(a word.Addr, d Descriptor, j int) uint64 {
	return h.mem.ReadWord(a + word.Addr(DataOffset(d.NPtrs(), j)))
}

// SetData writes data word j.
func (h *Heap) SetData(a word.Addr, d Descriptor, j int, v uint64, lsn word.LSN) {
	h.mem.WriteWord(a+word.Addr(DataOffset(d.NPtrs(), j)), v, lsn)
}

// ObjectBytes returns the full object image (descriptor plus fields) at a.
func (h *Heap) ObjectBytes(a word.Addr) []byte {
	d := h.Descriptor(a)
	if d.Forwarded() {
		panic(fmt.Sprintf("heap: ObjectBytes of forwarded object at %v", a))
	}
	return h.mem.ReadBytes(a, word.WordsToBytes(d.SizeWords()))
}

// RunBytes returns the image of a run of objects: words words at a.
func (h *Heap) RunBytes(a word.Addr, words int) []byte {
	return h.mem.ReadBytes(a, word.WordsToBytes(words))
}

// WriteObject stores a full object image at a.
func (h *Heap) WriteObject(a word.Addr, img []byte, lsn word.LSN) {
	if len(img)%word.WordSize != 0 || len(img) == 0 {
		panic(fmt.Sprintf("heap: bad object image length %d", len(img)))
	}
	h.mem.WriteBytes(a, img, lsn)
}

// WalkRun calls fn with the byte offset and descriptor of each object in a
// run image: objects laid end to end, as a base or move record carries them.
func WalkRun(img []byte, fn func(off int, d Descriptor)) {
	for off := 0; off+word.WordSize <= len(img); {
		d := Descriptor(word.GetWord(img, off))
		fn(off, d)
		off += word.WordsToBytes(d.SizeWords())
	}
}

// Space is one semispace. The collector (or, between collections, the
// allocator) bumps CopyPtr upward from Lo; during a collection the mutator
// allocates new objects downward from Hi (Fig. 3.3), so freshly allocated
// objects are never scanned.
type Space struct {
	Lo, Hi   word.Addr
	CopyPtr  word.Addr // next free address at the low end
	AllocPtr word.Addr // lowest address of the high-end (mutator) region
}

// NewSpace creates a reset semispace spanning [lo, hi).
func NewSpace(lo, hi word.Addr) *Space {
	if !lo.Aligned() || !hi.Aligned() || hi <= lo {
		panic(fmt.Sprintf("heap: bad space [%v,%v)", lo, hi))
	}
	return &Space{Lo: lo, Hi: hi, CopyPtr: lo, AllocPtr: hi}
}

// Contains reports whether a falls inside the space.
func (s *Space) Contains(a word.Addr) bool { return a >= s.Lo && a < s.Hi }

// Reset empties the space.
func (s *Space) Reset() {
	s.CopyPtr = s.Lo
	s.AllocPtr = s.Hi
}

// FreeWords returns the unallocated gap between the two regions.
func (s *Space) FreeWords() int {
	return word.BytesToWords(int(s.AllocPtr - s.CopyPtr))
}

// AllocLow reserves sizeWords at the low end (collector copies, and plain
// allocation when no collection is active). ok is false when full.
func (s *Space) AllocLow(sizeWords int) (word.Addr, bool) {
	a := s.CopyPtr
	next := a.Add(sizeWords)
	if next > s.AllocPtr {
		return word.NilAddr, false
	}
	s.CopyPtr = next
	return a, true
}

// AllocHigh reserves sizeWords at the high end (mutator allocation during
// a collection). ok is false when full.
func (s *Space) AllocHigh(sizeWords int) (word.Addr, bool) {
	next := s.AllocPtr - word.Addr(word.WordsToBytes(sizeWords))
	if next < s.CopyPtr || next > s.AllocPtr {
		return word.NilAddr, false
	}
	s.AllocPtr = next
	return next, true
}

// LastObjTable is the Last Object Table of §3.2.1: for every page of a
// space's copy region, the address of the last object that starts on that
// page. It lets the collector find the first object overlapping an
// arbitrary page without parsing from the start of the space.
type LastObjTable struct {
	lo       word.Addr
	pageSize int
	last     []word.Addr
}

// NewLastObjTable builds a table for the copy region of a space spanning
// [lo, hi) with the given page size.
func NewLastObjTable(lo, hi word.Addr, pageSize int) *LastObjTable {
	n := int((hi - lo + word.Addr(pageSize) - 1) / word.Addr(pageSize))
	return &LastObjTable{lo: lo, pageSize: pageSize, last: make([]word.Addr, n)}
}

// idx maps an address to its table slot.
func (t *LastObjTable) idx(a word.Addr) int {
	return int(a-t.lo) / t.pageSize
}

// Record notes that an object starts at a. Objects are recorded in
// ascending address order (the copy pointer only grows), so the latest
// recorded start on each page is the last object on it.
func (t *LastObjTable) Record(a word.Addr) {
	t.last[t.idx(a)] = a
}

// Entries exposes the raw table (for checkpointing).
func (t *LastObjTable) Entries() []word.Addr { return t.last }

// Restore reinstalls table entries from a checkpoint.
func (t *LastObjTable) Restore(entries []word.Addr) {
	copy(t.last, entries)
}

// FirstOverlapping returns the address of the first object that overlaps
// the page containing pageBase, given a parser that returns an object's
// size in words. limit is the end of the populated copy region; NilAddr is
// returned if the page is beyond it or holds no object.
func (t *LastObjTable) FirstOverlapping(pageBase word.Addr, limit word.Addr, sizeAt func(word.Addr) int) word.Addr {
	if pageBase >= limit {
		return word.NilAddr
	}
	// Find the nearest earlier page with a recorded object start and
	// parse forward from it; if none, parse from the region base.
	start := t.lo
	for i := t.idx(pageBase) - 1; i >= 0; i-- {
		if !t.last[i].IsNil() {
			start = t.last[i]
			break
		}
	}
	for a := start; a < limit; {
		size := sizeAt(a)
		end := a.Add(size)
		if end > pageBase {
			return a
		}
		a = end
	}
	return word.NilAddr
}
