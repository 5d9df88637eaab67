// Package wal defines the write-ahead log record taxonomy of the stable
// heap and its encoding, and provides the log manager that spools records
// to the one storage.Log and decodes them back. A torn final record is the
// log's to cut at open; every frame a scan delivers here is whole, so a
// frame that fails to decode is corruption, reported as a typed
// storage.CorruptFrameError.
//
// The taxonomy follows the paper:
//
//   - transactional records (§2.2.3, Ch. 4): Update (redo+undo),
//     CLR (compensation, redo-only), Alloc, Commit, End. A transaction's
//     chain starts at its first logged change, as in ARIES: there is no
//     begin record, and one that logs nothing leaves no trace. The commit
//     record ends a committed transaction; End closes only a rollback. Nor
//     is there an abort record: a rollback is its CLRs, the first chained
//     directly after the transaction's last record, and a CLR's UndoNext
//     is all the rollback state there is;
//   - collector records (Ch. 3): Flip, Copy, Scan, GCEnd — the records that
//     make the copy step and scan step of the incremental copying collector
//     repeatable after a crash;
//   - stability-tracking records (Ch. 5): Base ("log records for initial
//     object values"; the transaction's commit record marks its base
//     updates complete, so no record of their own does), V2SCopy (a
//     volatile collection's moves of newly stable objects into the stable
//     area, with the fixes of the slots that named them), SFix (redo-only
//     fix-up of pointer slots on one page), VFlip;
//   - recovery bookkeeping (§2.2.4, Ch. 4): EndWrite, Checkpoint. The
//     paper's page-fetch record is not logged: recovery seeds the dirty
//     page table from the checkpoint instead (DESIGN.md §4.3).
//
// All records are redo records in the repeating-history sense; only Update
// carries undo information, and only CLRs reference an undo-next LSN.
package wal

import (
	"cmp"
	"fmt"
	"slices"

	"stableheap/internal/word"
)

// Type tags a log record.
type Type uint8

// Log record types.
const (
	TInvalid Type = iota
	TBegin        // retired (Type.Retired)
	TUpdate
	TCLR
	TAlloc
	TCommit
	TAbort // retired
	TEnd
	TFlip
	TCopy
	TScan
	TGCEnd
	TBase
	TComplete // retired
	TV2SCopy
	TSFix
	TVFlip
	TPageFetch // retired
	TEndWrite
	TCheckpoint
	TLogical
	TPrepare
	TTwoPCBegin
	TTwoPCDecide
	TTwoPCEnd
	maxType
)

var typeNames = [...]string{
	TInvalid:     "invalid",
	TBegin:       "begin",
	TUpdate:      "update",
	TCLR:         "clr",
	TAlloc:       "alloc",
	TCommit:      "commit",
	TAbort:       "abort",
	TEnd:         "end",
	TFlip:        "flip",
	TCopy:        "copy",
	TScan:        "scan",
	TGCEnd:       "gcend",
	TBase:        "base",
	TComplete:    "complete",
	TV2SCopy:     "v2scopy",
	TSFix:        "sfix",
	TVFlip:       "vflip",
	TPageFetch:   "pagefetch",
	TEndWrite:    "endwrite",
	TCheckpoint:  "checkpoint",
	TLogical:     "logical",
	TPrepare:     "prepare",
	TTwoPCBegin:  "2pc-begin",
	TTwoPCDecide: "2pc-decide",
	TTwoPCEnd:    "2pc-end",
}

// Retired reports whether t is a record type no build appends any more: a
// log an older build wrote with one is refused by name (Decode). Each keeps
// its number, so no live type moves.
func (t Type) Retired() bool {
	switch t {
	case TBegin, TAbort, TPageFetch, TComplete:
		return true
	}
	return false
}

// String returns the record type's short name.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Record is any log record. Concrete types are the *Rec structs below.
type Record interface {
	// Type returns the record's type tag.
	Type() Type
	// Tx returns the owning transaction, or word.SystemTx for records
	// written by the collector, buffer manager, or checkpointer.
	Tx() word.TxID
}

// TxHdr is the header embedded by records that belong to a transaction's
// log chain.
type TxHdr struct {
	TxID    word.TxID
	PrevLSN word.LSN // previous record of the same transaction, or NilLSN
}

func (r TxHdr) Tx() word.TxID { return r.TxID }

// Prev returns the previous record of the same transaction: what a
// backward walk of the chain steps to from any record but a CLR.
func (r TxHdr) Prev() word.LSN { return r.PrevLSN }

// sysRec is embedded by system records outside any transaction.
type sysRec struct{}

func (sysRec) Tx() word.TxID { return word.SystemTx }

// Update record flags.
const (
	// UFPtrSlot marks an update of a pointer field (the slot holds an
	// object reference, not raw data).
	UFPtrSlot uint8 = 1 << iota
	// UFPtrToVolatile marks a pointer store whose new target lies in the
	// volatile area: recovery uses it to rebuild the stable→volatile
	// remembered set.
	UFPtrToVolatile
)

// UpdateRec is a transactional modification of a contiguous byte range of a
// single page, carrying both redo (new) and undo (old) images
// (§2.2.3 steps 1–5). Addr is word aligned and the range never crosses a
// page boundary.
type UpdateRec struct {
	TxHdr
	Addr word.Addr
	// Obj is the base address of the containing object when the update
	// was logged: recovery uses it to reacquire an in-doubt
	// transaction's object locks (locks are object granular).
	Obj   word.Addr
	Flags uint8
	Redo  []byte
	Undo  []byte
}

// PtrToVolatile reports whether this update stored a volatile-area pointer
// into a stable slot.
func (r UpdateRec) PtrToVolatile() bool { return r.Flags&UFPtrToVolatile != 0 }

// Type implements Record.
func (UpdateRec) Type() Type { return TUpdate }

// CLRRec is a compensation log record: the redo record written when an
// update is undone. It carries no undo information ("undo never has to be
// undone") and UndoNext points at the next record of the transaction to
// undo, skipping already-compensated work.
type CLRRec struct {
	TxHdr
	Addr word.Addr
	// Flags mirrors UpdateRec's flags for the *restored* value, so
	// recovery analysis can maintain the remembered set through undo.
	Flags    uint8
	Redo     []byte
	UndoNext word.LSN
}

// PtrToVolatile reports whether the restored value is a volatile-area
// pointer in a stable slot.
func (r CLRRec) PtrToVolatile() bool { return r.Flags&UFPtrToVolatile != 0 }

// Type implements Record.
func (CLRRec) Type() Type { return TCLR }

// AllocRec makes a stable-area allocation repeatable (§4.2): redo re-writes
// the descriptor word and zero-fills the object body. It needs no undo — an
// aborted transaction's allocations become unreachable garbage once the
// pointer stores that published them are undone.
type AllocRec struct {
	TxHdr
	Addr       word.Addr
	Descriptor uint64
	SizeWords  int // total object size including the descriptor word
}

// Type implements Record.
func (AllocRec) Type() Type { return TAlloc }

// LogicalRec is a logical update (§2.2.4's "logical undo" optimization):
// the word at Addr had Delta added to it (wrapping). Redo re-adds Delta
// (page-LSN conditioning keeps it apply-once); undo adds -Delta at the
// object's current location — no before-image travels in the log, and the
// undo needs no value translation when the collector moves the object.
type LogicalRec struct {
	TxHdr
	Addr  word.Addr
	Obj   word.Addr // containing object (see UpdateRec.Obj)
	Delta uint64
}

// Type implements Record.
func (LogicalRec) Type() Type { return TLogical }

// CLRLogicalDelta flags a CLR whose Redo is a logical delta (8 bytes,
// wrapping add) rather than a physical image.
const CLRLogicalDelta uint8 = 1 << 7

// PrepareRec records the participant side of two-phase commit (the
// extension §2.2 says the recovery system supports): the transaction's
// effects are complete and durable-on-force, but its fate belongs to the
// coordinator. A prepared transaction that is alive at a crash becomes
// in-doubt: recovery neither rolls it back nor ends it — it reacquires the
// transaction's write locks and waits for resolution.
type PrepareRec struct {
	TxHdr
}

// Type implements Record.
func (PrepareRec) Type() Type { return TPrepare }

// TwoPCParticipant names one branch of a global (cross-partition)
// transaction: the partition index and the branch's local transaction id
// in that partition's heap.
type TwoPCParticipant struct {
	Part uint32
	TxID word.TxID
}

// TwoPCBeginRec is the coordinator side of two-phase commit: global
// transaction GID spans Parts, whose branches are about to prepare. The
// record is appended to the coordinator's decision log but NOT forced —
// under presumed abort, losing it costs nothing (no decision record means
// abort).
type TwoPCBeginRec struct {
	sysRec
	GID   uint64
	Parts []TwoPCParticipant
}

// Type implements Record.
func (TwoPCBeginRec) Type() Type { return TTwoPCBegin }

// TwoPCDecideRec is the coordinator's commit/abort decision for global
// transaction GID. A commit decision is FORCED before any participant
// branch commits — it is the single point of no return; after a crash,
// every prepared branch named in a durable commit decision resolves to
// commit, and every other in-doubt branch resolves to abort (presumed
// abort). Abort decisions are appended unforced purely as an audit trail.
type TwoPCDecideRec struct {
	sysRec
	GID    uint64
	Commit bool
	Parts  []TwoPCParticipant
}

// Type implements Record.
func (TwoPCDecideRec) Type() Type { return TTwoPCDecide }

// TwoPCEndRec records that every participant of GID has applied the
// decision: the coordinator may forget the global transaction and the
// decision log below the oldest unended decision can be truncated.
type TwoPCEndRec struct {
	sysRec
	GID uint64
}

// Type implements Record.
func (TwoPCEndRec) Type() Type { return TTwoPCEnd }

// CommitRec commits a transaction; the log is forced through it.
type CommitRec struct {
	TxHdr
}

// Type implements Record.
func (CommitRec) Type() Type { return TCommit }

// EndRec marks a rollback finished: the transaction's CLRs have undone it
// all. A committed transaction has none; its commit record ends it.
type EndRec struct {
	TxHdr
}

// Type implements Record.
func (EndRec) Type() Type { return TEnd }

// FlipRec starts collection Epoch of the stable area: the previous to-space
// becomes from-space and copying begins into [ToLo, ToHi). RootObj gives the
// translated address of the global stable-root object, whose copy record
// follows the flip in the log.
type FlipRec struct {
	sysRec
	Epoch  uint64
	FromLo word.Addr
	FromHi word.Addr
	ToLo   word.Addr
	ToHi   word.Addr
	// RootObjFrom/RootObjTo translate the stable root object.
	RootObjFrom word.Addr
	RootObjTo   word.Addr
}

// Type implements Record.
func (FlipRec) Type() Type { return TFlip }

// CopyRec is the collector's copy step (Fig. 3.6/3.7): object of SizeWords
// words copied From → To, with a forwarding pointer overwriting the
// from-space descriptor word. Descriptor preserves the overwritten word so
// that redo can reconstruct the to-space copy even when the from-space page
// reached disk after the copy (the paper's "lost object descriptor" crash,
// Fig. 3.5). The record carries no object contents: repeating history
// guarantees the replayed from-space image is the historical one.
type CopyRec struct {
	sysRec
	Epoch      uint64
	From       word.Addr
	To         word.Addr
	SizeWords  int
	Descriptor uint64
	// Contents is empty in the paper's design (replay reconstructs the
	// copy from the from-space image). The content-carrying ablation
	// (Config.CopyContents, experiment E14) fills it with the full
	// object image, making copy replay self-contained at the price of
	// logging every copied byte.
	Contents []byte
}

// Type implements Record.
func (CopyRec) Type() Type { return TCopy }

// PtrFix is one pointer translation performed by a scan step: the word at
// Addr now holds NewPtr.
type PtrFix struct {
	Addr   word.Addr
	NewPtr word.Addr
}

// ScanRec is the collector's scan step (Fig. 3.8/3.9): the from-space
// pointers in a region of a single to-space page were translated to
// to-space addresses. Fixes lists the slots changed; the copy records for
// any objects transported by this step precede the scan record in the log.
type ScanRec struct {
	sysRec
	Epoch uint64
	Page  word.PageID
	// Full marks a page-granular scan (a read-barrier trap): the whole
	// page is now scanned. Sequential background steps set it only when
	// the batch completed the page.
	Full bool
	// ScanPtr is the background scan pointer after this step (NilAddr
	// for trap scans), letting recovery resume the sweep.
	ScanPtr word.Addr
	Fixes   []PtrFix
}

// Type implements Record.
func (ScanRec) Type() Type { return TScan }

// GCEndRec marks collection Epoch complete: all of to-space is scanned and
// from-space is free.
type GCEndRec struct {
	sysRec
	Epoch uint64
}

// Type implements Record.
func (GCEndRec) Type() Type { return TGCEnd }

// BaseRec logs the initial values of newly stable objects at their volatile
// addresses (Ch. 5, "Log Records for Initial Object Values"). It belongs to
// the committing transaction's chain but is redo-only. One record covers a
// run: objects of one tracking batch that lie end to end from Addr.
type BaseRec struct {
	TxHdr
	Addr word.Addr
	// Object is the run's image: each object's descriptor word and fields.
	Object []byte
}

// Type implements Record.
func (BaseRec) Type() Type { return TBase }

// V2SCopyRec is one volatile move cycle, Fig. 5.2's "V2scopy" and Fig.
// 5.3's "S4vscan" in one record: the newly stable objects the cycle moved
// into the stable area, their full images with pointer slots translated
// (the volatile sources owe redo nothing once the cycle is logged), and the
// fixes of the slots that named them. A torn tail keeps it whole or drops it.
type V2SCopyRec struct {
	sysRec
	From   []word.Addr // the moved objects' sources, in image order
	Runs   []MoveRun   // where the images land, in image order
	Object []byte      // the images end to end
	Fixes  []PtrFix    // the slots that named a moved object
}

// MoveRun lands the next Bytes of a V2SCopy record's images from To.
type MoveRun struct {
	To    word.Addr
	Bytes int
}

// Type implements Record.
func (V2SCopyRec) Type() Type { return TV2SCopy }

// Writes calls write for each range the record's redo writes — every run's
// images and every fix's slot — in address order. The writes share the
// record's LSN, so whoever applies them must finish a page before touching
// the next: a page written back between two of its writes would carry the
// LSN without the second, and redo, judging it by its LSN, would skip that.
func (r V2SCopyRec) Writes(write func(at word.Addr, b []byte)) {
	type span struct {
		at word.Addr
		b  []byte
	}
	spans := make([]span, 0, len(r.Runs)+len(r.Fixes))
	off := 0
	for _, run := range r.Runs {
		spans = append(spans, span{run.To, r.Object[off : off+run.Bytes]})
		off += run.Bytes
	}
	ptrs := make([]byte, word.WordSize*len(r.Fixes))
	for i, f := range r.Fixes {
		word.PutWord(ptrs, i*word.WordSize, uint64(f.NewPtr))
		spans = append(spans, span{f.Addr, ptrs[i*word.WordSize : (i+1)*word.WordSize]})
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.at, b.at) })
	for _, s := range spans {
		write(s.at, s.b)
	}
}

// SFixRec is a redo-only fix-up of stable-area pointer slots (Ch. 5, Fig.
// 5.3 "S4vscan"): a stable flip translating the volatile area's slots that
// name its from-space logs one per page. All slots are on a single page.
type SFixRec struct {
	sysRec
	Page  word.PageID
	Fixes []PtrFix
}

// Type implements Record.
func (SFixRec) Type() Type { return TSFix }

// VFlipRec marks a volatile-area collection that evacuated Moved newly
// stable objects into the stable area (Fig. 7.2 "Volatile Flip Record").
type VFlipRec struct {
	sysRec
	Epoch uint64
	Moved int
}

// Type implements Record.
func (VFlipRec) Type() Type { return TVFlip }

// EndWriteRec records that an updated page reached disk, carrying the page
// LSN that was written (§2.2.4). A run of Count consecutive pages from Page
// on, written with one device write, takes one record: every page of it was
// written at PageLSN (storage.Disk.WriteRun). Count 0 is one page, and such
// a record is laid out as before runs existed.
type EndWriteRec struct {
	sysRec
	Page    word.PageID
	PageLSN word.LSN
	Count   int
}

// Pages returns how many pages the record certifies: Count, at least one.
func (r EndWriteRec) Pages() int { return max(r.Count, 1) }

// Type implements Record.
func (EndWriteRec) Type() Type { return TEndWrite }

// DirtyPage is a dirty-page-table entry carried by a checkpoint.
type DirtyPage struct {
	Page word.PageID
	// RecLSN is the LSN of the earliest record that might not be
	// reflected on the disk copy of the page.
	RecLSN word.LSN
}

// AddrPair is one undo address translation carried by a checkpointed
// transaction entry: the address a record logged, the slot's current
// location as of the checkpoint, and the record's LSN. At identifies the
// entry — one transaction can log the same address twice for different
// objects (from-space reuse across collections), so address alone is
// ambiguous; recovery's translate looks the seed up by (At, Orig).
type AddrPair struct {
	At   word.LSN
	Orig word.Addr
	Cur  word.Addr
}

// TxEntry is an active-transaction-table entry carried by a checkpoint.
type TxEntry struct {
	TxID     word.TxID
	FirstLSN word.LSN
	LastLSN  word.LSN
	// Prepared is set if the transaction has a stable prepare record
	// (in-doubt across crashes until the coordinator resolves it).
	Prepared bool
	// UTT holds the undo address translations accumulated for this
	// transaction: for every address appearing in its undo records that
	// the collector has since moved, the current address
	// (§4.4 "Translating Undo Roots").
	UTT []AddrPair
}

// GCState is the collector state carried by a checkpoint so that recovery
// after a crash during a collection starts at the checkpoint — not at the
// flip — keeping recovery time independent of heap size (§3.5.3, §4.5).
type GCState struct {
	Active  bool
	Epoch   uint64
	FlipLSN word.LSN
	FromLo  word.Addr
	FromHi  word.Addr
	ToLo    word.Addr
	ToHi    word.Addr
	CopyPtr word.Addr
	ScanPtr word.Addr
	// AllocPtr is the mutator allocation pointer at the top of to-space.
	AllocPtr word.Addr
	// Scanned marks to-space pages already scanned (and hence
	// unprotected), indexed from the page containing ToLo.
	Scanned []bool
	// LastObj is the Last Object Table: for each to-space page in the
	// copy region, the address of the last object starting on it
	// (NilAddr if none), indexed from the page containing ToLo.
	LastObj []word.Addr
}

// CheckpointRec is the fuzzy checkpoint record (§2.2.4, §4.6). It bounds
// redo (dirty page table), seeds undo (transaction table with undo
// translations), and snapshots the collector and stability-tracker state.
type CheckpointRec struct {
	sysRec
	Dirty []DirtyPage
	Txs   []TxEntry
	// Space configuration at the checkpoint.
	StableCur   int // which stable semispace is current (0 or 1)
	VolatileCur int
	RootObj     word.Addr // current address of the stable root object
	// StableAlloc is the allocation frontier in the current stable
	// semispace when no collection is active.
	StableAlloc word.Addr
	// StableAllocHigh is the descending high-end frontier of the current
	// stable semispace: objects moved in during a concurrent stable scan
	// land above it (never swept by the scan) and stay live after the
	// collection ends, so the frontier must survive checkpoints or a
	// recovered heap would allocate over them.
	StableAllocHigh word.Addr
	GC              GCState
	// LS lists newly stable objects still living in the volatile area
	// (the paper's LS set), as their volatile addresses.
	LS []word.Addr
	// SRem lists stable-area slots currently holding pointers into the
	// volatile area (the stable→volatile remembered set).
	SRem []word.Addr
	// VolatileLo/VolatileHi bound the volatile area, so recovery can
	// classify pointer targets without knowing the configuration.
	VolatileLo word.Addr
	VolatileHi word.Addr
	// NextTx and NextEpoch resume the id generators.
	NextTx    word.TxID
	NextEpoch uint64
}

// Type implements Record.
func (CheckpointRec) Type() Type { return TCheckpoint }

// Floor returns the lowest LSN a recovery from this checkpoint, logged at
// lsn, reads: lsn itself, every dirty page's recLSN (redo) and every listed
// transaction's first LSN (undo). The log holds everything from the floor
// of the checkpoint the master names on.
func (cp CheckpointRec) Floor(lsn word.LSN) word.LSN {
	for _, dp := range cp.Dirty {
		if dp.RecLSN != word.NilLSN {
			lsn = min(lsn, dp.RecLSN)
		}
	}
	for _, te := range cp.Txs {
		lsn = min(lsn, te.FirstLSN)
	}
	return lsn
}
