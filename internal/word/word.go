// Package word defines the primitive value types shared by every layer of
// the stable heap: virtual addresses, page numbers, log sequence numbers,
// transaction identifiers, and the word-granularity encoding helpers used by
// the simulated one-level store.
//
// The simulated machine is word addressed at byte granularity: a word is
// 8 bytes, every object is word aligned, and every pointer field occupies
// exactly one word. Address 0 is the nil pointer and is never allocated.
package word

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// WordSize is the size of a machine word in bytes. All heap addresses are
// multiples of WordSize.
const WordSize = 8

// Addr is a byte address in the simulated virtual address space. A valid
// object address is word aligned and nonzero; Addr(0) is the nil pointer.
type Addr uint64

// NilAddr is the nil pointer. No object is ever allocated at address zero.
const NilAddr Addr = 0

// IsNil reports whether a is the nil pointer.
func (a Addr) IsNil() bool { return a == NilAddr }

// Aligned reports whether a is word aligned.
func (a Addr) Aligned() bool { return a%WordSize == 0 }

// Page returns the page that contains a, for the given page size.
func (a Addr) Page(pageSize int) PageID { return PageID(uint64(a) / uint64(pageSize)) }

// Add returns a offset by n words.
func (a Addr) Add(nWords int) Addr { return a + Addr(nWords*WordSize) }

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// PageID numbers a page of the virtual address space.
type PageID uint64

// Base returns the first byte address of the page for the given page size.
func (p PageID) Base(pageSize int) Addr { return Addr(uint64(p) * uint64(pageSize)) }

// LSN is a log sequence number: the byte offset in the (conceptually
// infinite) log at which a record begins. LSNs are strictly increasing and
// never reused, even across truncation.
type LSN uint64

// NilLSN marks "no LSN": the zero value, below every real record.
const NilLSN LSN = 0

// TxID identifies a transaction. TxID 0 is reserved for the system
// (records written outside any transaction, e.g. by the garbage collector).
type TxID uint64

// SystemTx is the transaction id used on log records written by the system
// itself — garbage-collector copy/scan/flip records, checkpoints and
// end-write records. System records are redo-only and never undone.
const SystemTx TxID = 0

// PutWord stores w little-endian at b[off:off+8].
func PutWord(b []byte, off int, w uint64) {
	binary.LittleEndian.PutUint64(b[off:off+WordSize], w)
}

// GetWord loads the little-endian word at b[off:off+8].
func GetWord(b []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(b[off : off+WordSize])
}

// WordsToBytes converts a count of words to a count of bytes.
func WordsToBytes(n int) int { return n * WordSize }

// BytesToWords converts a byte count (which must be word aligned) to words.
func BytesToWords(n int) int { return n / WordSize }

// Move is one object relocation: the Words words that were at From live at To.
type Move struct {
	From, To Addr
	Words    int
}

// Moves is the relocations of ONE collection cycle, sorted by From. A
// cycle's targets lie outside its from-space, so no address is translated
// twice; across two cycles that fails, because semispace addresses are reused.
type Moves []Move

// Translate returns where the word at a lives now: a, if no move covers it.
func (ms Moves) Translate(a Addr) Addr {
	i := sort.Search(len(ms), func(i int) bool { return ms[i].From > a })
	if i > 0 && a < ms[i-1].From.Add(ms[i-1].Words) {
		return ms[i-1].To + (a - ms[i-1].From)
	}
	return a
}
