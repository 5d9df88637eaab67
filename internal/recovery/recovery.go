// Package recovery implements the paper's recovery system (Ch. 4):
// repeating history from the last checkpoint, undo of loser transactions
// with compensation records and undo-address translation through collector
// copy records, fuzzy checkpoints, and log truncation. Recovery time is
// bounded by the log written since the last checkpoint — never by heap
// size — even when the crash lands in the middle of a collection: the
// checkpointed collector state plus the replayed flip/copy/scan records
// reconstruct the collection, which then simply continues after restart.
package recovery

import (
	"fmt"
	"sort"
	"time"

	"stableheap/internal/heap"
	"stableheap/internal/obs"
	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// redoBatchSize is how many records redo decodes per log read.
const redoBatchSize = 128

// Options tunes how Recover repeats history.
type Options struct {
	// Recorder, when non-nil, receives one span per recovery phase
	// (analysis, redo, undo).
	Recorder *obs.BlackBox
	// Media selects recovery from total media failure (§2.2.2): the disk is
	// freshly formatted and the log is the full archive copy. End-write
	// records are ignored — the pages they certified died with the disk —
	// so redo reconstructs every page from history alone.
	Media bool
}

// Stats reports where recovery spent its time.
type Stats struct {
	// Analysis, Redo, Undo are the wall-clock durations of the three
	// passes.
	Analysis time.Duration
	Redo     time.Duration
	Undo     time.Duration
	// Deprecated: redo is sequential (DESIGN.md §4.3a); always 1. Kept
	// only for the frozen benchmark harness, which reads it.
	RedoWorkers int
}

// Result is what Recover hands back to the stable-heap core: the
// checkpoint-equivalent system state advanced through the tail of the log.
type Result struct {
	// CP is the reconstructed state: space configuration, collector
	// state, root object address, LS and SRem sets, id generators. It is
	// the checkpoint record as patched by analysis.
	CP wal.CheckpointRec
	// RedoStart is where repeating history began.
	RedoStart word.LSN
	// RedoScanned and RedoApplied count records visited and records that
	// actually modified a page.
	RedoScanned int
	RedoApplied int
	// Losers lists the transactions that were rolled back.
	Losers []word.TxID
	// InDoubt lists prepared transactions awaiting the coordinator:
	// recovery keeps their effects and the core reacquires their locks.
	InDoubt []InDoubtTx
	// Stats breaks down where recovery spent its time.
	Stats Stats

	translator *undoer
}

// InDoubtTx describes one prepared transaction restored by recovery.
type InDoubtTx struct {
	ID      word.TxID
	LastLSN word.LSN
}

// Translate maps an address logged by the given in-doubt transaction at
// LSN at to its current location (chasing checkpoint seeds and the copies
// replayed after the record was written — earlier copies cannot have
// moved an object whose address was current when logged).
func (r *Result) Translate(id word.TxID, addr word.Addr, at word.LSN) word.Addr {
	info := r.translator.a.txs[id]
	if info == nil {
		return addr
	}
	return r.translator.translate(info, addr, at)
}

// txInfo is the analysis pass's view of one transaction.
type txInfo struct {
	firstLSN  word.LSN
	lastLSN   word.LSN
	committed bool
	prepared  bool
	// seed holds the checkpointed undo translations, keyed by the LSN of
	// the record that logged the address plus the address itself: one
	// transaction can log the same address twice for different objects
	// (from-space reuse), so an address-keyed map would alias.
	seed map[seedKey]word.Addr
}

// seedKey identifies one checkpointed UTT entry.
type seedKey struct {
	at   word.LSN
	orig word.Addr
}

// copyEntry is one object move, for undo-address translation.
type copyEntry struct {
	lsn  word.LSN
	from word.Addr
	to   word.Addr
	size int // words
}

// Recover rebuilds the stable heap after a crash. mem must be a fresh store
// over the surviving disk; log must wrap the surviving (stable-only) log
// device. The two-pass structure is §2.2.3's: repeat history, then abort
// the transactions that were active at the crash.
func Recover(mem *vm.Store, log *wal.Manager, opts Options) (*Result, error) {
	a, res, err := replay(mem, log, opts)
	if err != nil {
		return nil, err
	}

	// Undo: abort every loser (still open, uncommitted, unprepared) in the
	// order of their first records, translating undo addresses and restored
	// pointer values through the checkpoint seeds plus the copies replayed
	// after the checkpoint. Prepared transactions are in doubt, not losers.
	phase := time.Now()
	u := &undoer{mem: mem, log: log, a: a}
	for _, id := range a.order {
		info, open := a.txs[id]
		switch {
		case !open || info.committed:
		case info.prepared:
			res.InDoubt = append(res.InDoubt, InDoubtTx{ID: id, LastLSN: info.lastLSN})
		default:
			u.rollback(id, info)
			res.Losers = append(res.Losers, id)
		}
	}
	res.Stats.Undo = time.Since(phase)
	opts.Recorder.Span(obs.EvRecUndo, res.Stats.Undo, 0, uint64(len(res.Losers)), 0)
	res.translator = u
	// Undo may have changed the remembered set; republish it.
	res.CP.SRem = sortedAddrs(a.srem)
	return res, nil
}

// replay is the forward half of restart, shared by crash recovery and
// archive recovery: find the checkpoint the master names, run analysis
// from it, and repeat history from the earliest recLSN of a dirty page. It
// returns the analysis state (for undo) and a Result filled in through the
// redo pass.
func replay(mem *vm.Store, log *wal.Manager, opts Options) (*analysis, *Result, error) {
	master := mem.Disk().Master()
	if !master.Formatted {
		return nil, nil, fmt.Errorf("recovery: disk is not a formatted stable heap")
	}
	cpLSN := master.CheckpointLSN
	if cpLSN == word.NilLSN {
		return nil, nil, fmt.Errorf("recovery: master block has no checkpoint")
	}
	// The log cut any torn final record when it was opened. A frame from
	// here on that fails its CRC is bit rot: analysis decodes every stable
	// one and panics with a CorruptFrameError, so recovery refuses rather
	// than repeat corrupted history.
	rec, err := log.ReadAt(cpLSN)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: cannot read checkpoint at %d: %w", cpLSN, err)
	}
	cp, ok := rec.(wal.CheckpointRec)
	if !ok {
		return nil, nil, fmt.Errorf("recovery: record at %d is %v, not a checkpoint", cpLSN, rec.Type())
	}
	// A lowest segment lost above the floor would otherwise start redo
	// silently at the first surviving record.
	if floor, trunc := cp.Floor(cpLSN), log.Device().TruncLSN(); floor < trunc {
		return nil, nil, &storage.CorruptFrameError{LSN: floor, Reason: fmt.Sprintf(
			"the checkpoint at %d needs the log from %d on, but it starts at %d: a segment file is missing", cpLSN, floor, trunc)}
	}

	phase := time.Now()
	a := newAnalysis(mem.PageSize(), cp, cpLSN, opts.Media)
	a.scan(log)
	if err := a.dpt.lostWrite(mem.Disk()); err != nil {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	res := &Result{CP: a.cp, RedoStart: a.dpt.redoStart()}
	res.Stats.Analysis = time.Since(phase)
	opts.Recorder.Span(obs.EvRecAnalysis, res.Stats.Analysis, 0, 0, 0)

	phase = time.Now()
	res.Stats.RedoWorkers = 1
	if res.RedoStart != word.NilLSN {
		red := &redoer{mem: mem, dpt: a.dpt}
		log.ScanBatch(res.RedoStart, true, redoBatchSize, func(lsns []word.LSN, recs []wal.Record) bool {
			for i, rec := range recs {
				res.RedoScanned++
				if red.apply(lsns[i], rec) {
					res.RedoApplied++
				}
			}
			return true
		})
	}
	res.Stats.Redo = time.Since(phase)
	opts.Recorder.Span(obs.EvRecRedo, res.Stats.Redo, 0, uint64(res.RedoApplied), uint64(res.RedoScanned))
	return a, res, nil
}

// analysis reconstructs the system state by scanning forward from the
// checkpoint (§4.6): the dirty page table, the transaction table, the
// collector state, the stability sets, and the copy list for undo
// translation.
type analysis struct {
	cp     wal.CheckpointRec
	cpLSN  word.LSN
	dpt    *dirtyPages
	txs    map[word.TxID]*txInfo
	copies []copyEntry
	ls     map[word.Addr]bool
	srem   map[word.Addr]bool
	order  []word.TxID // first-record order, for deterministic undo
}

func newAnalysis(pageSize int, cp wal.CheckpointRec, cpLSN word.LSN, media bool) *analysis {
	a := &analysis{
		cp: cp, cpLSN: cpLSN,
		dpt:  newDirtyPages(pageSize, cp.Dirty, cpLSN, media),
		txs:  make(map[word.TxID]*txInfo),
		ls:   make(map[word.Addr]bool),
		srem: make(map[word.Addr]bool),
	}
	for _, te := range cp.Txs {
		info := &txInfo{firstLSN: te.FirstLSN, lastLSN: te.LastLSN, prepared: te.Prepared, seed: make(map[seedKey]word.Addr)}
		for _, p := range te.UTT {
			info.seed[seedKey{at: p.At, orig: p.Orig}] = p.Cur
		}
		a.txs[te.TxID] = info
		a.order = append(a.order, te.TxID)
	}
	for _, addr := range cp.LS {
		a.ls[addr] = true
	}
	for _, addr := range cp.SRem {
		a.srem[addr] = true
	}
	return a
}

// touch updates the transaction table for a chained record.
func (a *analysis) touch(id word.TxID, lsn word.LSN) *txInfo {
	info := a.txs[id]
	if info == nil {
		info = &txInfo{firstLSN: lsn, seed: make(map[seedKey]word.Addr)}
		a.txs[id] = info
		a.order = append(a.order, id)
	}
	info.lastLSN = lsn
	return info
}

// gcPageIndex maps a to-space address to its Scanned/LastObj slot.
func (a *analysis) gcPageIndex(addr word.Addr) int {
	return int(addr-a.cp.GC.ToLo) / a.dpt.pageSize
}

// scan folds every record from the checkpoint on into the dirty page table
// (by footprint, see dirtyPages.note) and into the non-page state below.
func (a *analysis) scan(log *wal.Manager) {
	maxTx := a.cp.NextTx
	log.Scan(a.cpLSN, true, func(lsn word.LSN, rec wal.Record) bool {
		if id := rec.Tx(); id != word.SystemTx && id >= maxTx {
			maxTx = id + 1
		}
		a.dpt.note(lsn, rec)
		switch r := rec.(type) {
		case wal.UpdateRec:
			a.touch(r.TxID, lsn)
			a.updateSRem(r.Addr, r.PtrToVolatile())
		case wal.CLRRec:
			a.touch(r.TxID, lsn)
			a.updateSRem(r.Addr, r.PtrToVolatile())
		case wal.LogicalRec:
			a.touch(r.TxID, lsn)
		case wal.AllocRec:
			if r.TxID != word.SystemTx {
				a.touch(r.TxID, lsn)
			}
			a.gcAlloc(r.Addr, r.SizeWords)
		case wal.CommitRec:
			a.touch(r.TxID, lsn).committed = true
		case wal.EndRec:
			a.touch(r.TxID, lsn)
			delete(a.txs, r.TxID)
		case wal.BaseRec:
			a.touch(r.TxID, lsn)
			heap.WalkRun(r.Object, func(off int, _ heap.Descriptor) {
				a.ls[r.Addr+word.Addr(off)] = true
			})
		case wal.PrepareRec:
			a.touch(r.TxID, lsn).prepared = true
		case wal.FlipRec:
			ps := word.Addr(a.dpt.pageSize)
			n := int((r.ToHi - r.ToLo + ps - 1) / ps)
			a.cp.GC = wal.GCState{
				Active: true, Epoch: r.Epoch, FlipLSN: lsn,
				FromLo: r.FromLo, FromHi: r.FromHi, ToLo: r.ToLo, ToHi: r.ToHi,
				CopyPtr: r.ToLo, ScanPtr: r.ToLo, AllocPtr: r.ToHi,
				Scanned: make([]bool, n), LastObj: make([]word.Addr, n),
			}
			a.cp.StableCur = 1 - a.cp.StableCur
			// RootObjTo is where the root's copy record, which follows the
			// flip, puts it; a torn tail can keep the flip and lose the copy.
			a.cp.RootObj = r.RootObjFrom
		case wal.CopyRec:
			if r.From == a.cp.RootObj {
				a.cp.RootObj = r.To
			}
			a.copies = append(a.copies, copyEntry{lsn: lsn, from: r.From, to: r.To, size: r.SizeWords})
			// Remembered-set slots live inside stable objects and move
			// with them.
			hi := r.From.Add(r.SizeWords)
			for slot := range a.srem {
				if slot >= r.From && slot < hi {
					delete(a.srem, slot)
					a.srem[r.To+(slot-r.From)] = true
				}
			}
			if a.cp.GC.Active {
				if r.To != a.cp.GC.CopyPtr {
					panic(fmt.Sprintf("recovery: copy to %v but copy pointer is %v", r.To, a.cp.GC.CopyPtr))
				}
				a.cp.GC.CopyPtr = r.To.Add(r.SizeWords)
				a.cp.GC.LastObj[a.gcPageIndex(r.To)] = r.To
			}
		case wal.ScanRec:
			if a.cp.GC.Active {
				// Full is set only by trap scans, which fix every slot on
				// their page in this one record — the page is safe for the
				// mutator. Sweep records instead advance ScanPtr; pages
				// wholly behind the sweep are scanned (the collector's
				// markThrough rule). Marking the sweep record's own Page
				// would over-claim: it names the page of the last slot
				// fixed, which for an object spanning a page boundary lies
				// ahead of the sweep and still has unscanned slots.
				base := r.Page.Base(a.dpt.pageSize)
				if r.Full && base >= a.cp.GC.ToLo && base < a.cp.GC.ToHi {
					a.cp.GC.Scanned[a.gcPageIndex(base)] = true
				}
				if r.ScanPtr > a.cp.GC.ScanPtr {
					a.cp.GC.ScanPtr = r.ScanPtr
					ps := word.Addr(a.dpt.pageSize)
					for i := range a.cp.GC.Scanned {
						if a.cp.GC.ToLo+word.Addr(i+1)*ps > r.ScanPtr {
							break
						}
						a.cp.GC.Scanned[i] = true
					}
				}
			}
		case wal.GCEndRec:
			a.cp.StableAlloc = a.cp.GC.CopyPtr
			// High-end objects (moved in during a concurrent scan) keep
			// living above AllocPtr after the collection ends.
			a.cp.StableAllocHigh = a.cp.GC.AllocPtr
			a.cp.GC = wal.GCState{Active: false, Epoch: r.Epoch}
		case wal.V2SCopyRec:
			a.moveCycle(lsn, r)
		case wal.SFixRec:
			for _, f := range r.Fixes {
				a.updateSRem(f.Addr, a.inVolatile(f.NewPtr))
			}
		case wal.VFlipRec:
			a.ls = make(map[word.Addr]bool)
			a.cp.VolatileCur = 1 - a.cp.VolatileCur
			a.cp.NextEpoch = r.Epoch + 1
		case wal.EndWriteRec, wal.CheckpointRec:
			// No state beyond the dirty page table; mid-scan checkpoints
			// are ignored (the master names the one we started from).
		default:
			panic(fmt.Sprintf("recovery: analysis cannot handle %T", rec))
		}
		return true
	})
	a.cp.NextTx = maxTx
	// Publish the rebuilt sets back into the checkpoint image.
	a.cp.LS = sortedAddrs(a.ls)
	a.cp.SRem = sortedAddrs(a.srem)
	a.cp.Dirty = a.dpt.sorted()
}

// gcAlloc folds an alloc record into the collector state: a filler at the
// copy pointer extends the copy region; anything else during a collection
// is a mutator allocation at the top of to-space; when idle it advances the
// allocation frontier.
func (a *analysis) gcAlloc(addr word.Addr, sizeWords int) {
	g := &a.cp.GC
	if g.Active && addr >= g.ToLo && addr < g.ToHi {
		if addr == g.CopyPtr {
			g.CopyPtr = addr.Add(sizeWords)
			g.LastObj[a.gcPageIndex(addr)] = addr
		} else if addr < g.AllocPtr {
			g.AllocPtr = addr
		}
		return
	}
	if end := addr.Add(sizeWords); end > a.cp.StableAlloc {
		a.cp.StableAlloc = end
	}
}

// moveCycle folds a move cycle into the copy list, the LS set, the
// remembered set and the stable frontier. A moved slot naming the volatile
// area enters the remembered set, as does a fixed slot that still does.
func (a *analysis) moveCycle(lsn word.LSN, r wal.V2SCopyRec) {
	srcs, base := r.From, 0
	for _, run := range r.Runs {
		heap.WalkRun(r.Object[base:base+run.Bytes], func(off int, d heap.Descriptor) {
			from, to := srcs[0], run.To+word.Addr(off)
			srcs = srcs[1:]
			a.copies = append(a.copies, copyEntry{lsn: lsn, from: from, to: to, size: d.SizeWords()})
			delete(a.ls, from)
			for j := 0; j < d.NPtrs(); j++ {
				if p := word.Addr(word.GetWord(r.Object, base+off+heap.PtrOffset(j))); a.inVolatile(p) {
					a.srem[to+word.Addr(heap.PtrOffset(j))] = true
				}
			}
		})
		base += run.Bytes
		if g := &a.cp.GC; g.Active && run.To >= g.ToLo && run.To < g.ToHi {
			// During a concurrent stable collection, moves land at the
			// high end of the active to-space (above the scan, outside
			// the copy-pointer sweep): reconstruct the descending
			// high-water mark, not the allocation frontier.
			g.AllocPtr = min(g.AllocPtr, run.To)
		} else {
			a.cp.StableAlloc = max(a.cp.StableAlloc, run.To+word.Addr(run.Bytes))
		}
	}
	for _, f := range r.Fixes {
		a.updateSRem(f.Addr, a.inVolatile(f.NewPtr))
	}
}

// updateSRem maintains the stable→volatile remembered set: a flagged store
// adds the slot; any other store to a remembered slot removes it. As at run
// time, only stable-area slots belong: a slot of a newly stable object
// still at a volatile address is found by the scan that follows its move,
// and nothing would rebase or retire its entry when the object leaves.
func (a *analysis) updateSRem(addr word.Addr, ptrToVolatile bool) {
	if a.inVolatile(addr) {
		return
	}
	if ptrToVolatile {
		a.srem[addr] = true
	} else {
		delete(a.srem, addr)
	}
}

// inVolatile reports whether an address lies in the volatile area; the
// bounds travel in the checkpoint record.
func (a *analysis) inVolatile(p word.Addr) bool {
	return p >= a.cp.VolatileLo && p < a.cp.VolatileHi && !p.IsNil()
}

func sortedAddrs(set map[word.Addr]bool) []word.Addr {
	out := make([]word.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
