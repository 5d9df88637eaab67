package main

import (
	"encoding/json"
	"fmt"
	"io"

	"stableheap"
	"stableheap/internal/heap"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// logDump is shstat -log: it recovers the heap in dir — after formatting it
// and running the workload there, if dir is fresh — and prints its retained
// log records (from the truncation point) with their roles, so the record
// taxonomy of the paper (update/CLR, base/commit, V2SCopy/SFix,
// flip/copy/scan/GCEnd, checkpoint) can be read off a real run. The heap
// must have shstat's geometry (config), which is the default one.
func logDump(dir string, ops, accounts, maxRecords int, asJSON bool, stdout, stderr io.Writer) error {
	cfg := config()
	cfg.Dir = dir
	h, err := stableheap.OpenDir(cfg)
	if err != nil {
		return err
	}
	if h.LastRecovery() == nil {
		// A fresh directory: run the workload in it, then reopen it.
		if h, err = runWorkload(h, cfg, ops, accounts, stderr); err != nil {
			return err
		}
		h.Close()
		if h, err = stableheap.RecoverDir(cfg); err != nil {
			return err
		}
	}
	defer h.Close()

	log := h.Log()
	enc := json.NewEncoder(stdout)
	n, more := 0, false
	log.Scan(log.Device().TruncLSN(), false, func(lsn word.LSN, r wal.Record) bool {
		if more = n == maxRecords; more {
			return false
		}
		n++
		if asJSON {
			err = enc.Encode(jsonRecord{LSN: uint64(lsn), Type: r.Type().String(), Record: r})
		} else {
			_, err = fmt.Fprintf(stdout, "  %6d  %s\n", lsn, describe(r))
		}
		return err == nil
	})
	if err != nil || asJSON {
		return err
	}
	if more {
		fmt.Fprintln(stdout, "  … (truncated; use -n to see more)")
	}
	st := log.Device().Stats()
	fmt.Fprintf(stdout, "\n%d records shown of the log retained at %s; since this open: %d appended, %d forces, tx_begun_total %d\n",
		n, dir, st.Appends, st.Forces, h.Metrics().Counters["tx_begun_total"])
	return nil
}

// jsonRecord is the machine-readable form: one object per line (NDJSON),
// so the dump streams into jq or a script without loading the whole log.
type jsonRecord struct {
	LSN    uint64     `json:"lsn"`
	Type   string     `json:"type"`
	Record wal.Record `json:"record"`
}

// describe is one record's annotated line. A type without an arm of its
// own prints as "?type" (TestLogDumpCoversEveryRecordType refuses that).
func describe(r wal.Record) string {
	switch rec := r.(type) {
	case wal.UpdateRec:
		kind := "data"
		if rec.Flags&wal.UFPtrSlot != 0 {
			kind = "ptr"
		}
		return fmt.Sprintf("update       tx=%d addr=%v %s redo=%x undo=%x", rec.TxID, rec.Addr, kind, rec.Redo, rec.Undo)
	case wal.LogicalRec:
		return fmt.Sprintf("logical      tx=%d addr=%v delta=%+d (no before-image)", rec.TxID, rec.Addr, int64(rec.Delta))
	case wal.CLRRec:
		return fmt.Sprintf("CLR          tx=%d addr=%v restores=%x undoNext=%d (undo resumes at undoNext)", rec.TxID, rec.Addr, rec.Redo, rec.UndoNext)
	case wal.AllocRec:
		return fmt.Sprintf("alloc        tx=%d addr=%v size=%dw", rec.TxID, rec.Addr, rec.SizeWords)
	case wal.PrepareRec:
		return fmt.Sprintf("PREPARE      tx=%d (forced; in-doubt across crashes)", rec.TxID)
	case wal.CommitRec:
		return fmt.Sprintf("COMMIT       tx=%d (log forced through here)", rec.TxID)
	case wal.EndRec:
		return fmt.Sprintf("end          tx=%d (rollback finished)", rec.TxID)
	case wal.BaseRec:
		n := 0
		heap.WalkRun(rec.Object, func(int, heap.Descriptor) { n++ })
		return fmt.Sprintf("base         tx=%d addr=%v %dB initial values of a run of %d newly stable objects", rec.TxID, rec.Addr, len(rec.Object), n)
	case wal.V2SCopyRec:
		return fmt.Sprintf("v2scopy      move cycle: %d objects (%dB) volatile→stable in %d destination runs %v, %d slots fixed; first sources %v",
			len(rec.From), len(rec.Object), len(rec.Runs), rec.Runs[:min(len(rec.Runs), 4)], len(rec.Fixes), rec.From[:min(len(rec.From), 8)])
	case wal.SFixRec:
		return fmt.Sprintf("sfix         page=%d %d stable slots rewired (S4VScan)", rec.Page, len(rec.Fixes))
	case wal.VFlipRec:
		return fmt.Sprintf("vflip        volatile collection %d moved %d objects", rec.Epoch, rec.Moved)
	case wal.FlipRec:
		return fmt.Sprintf("FLIP         epoch=%d from=[%v,%v) to=[%v,%v) root %v→%v", rec.Epoch, rec.FromLo, rec.FromHi, rec.ToLo, rec.ToHi, rec.RootObjFrom, rec.RootObjTo)
	case wal.CopyRec:
		return fmt.Sprintf("copy         %v → %v %dw desc=%#x (copy step)", rec.From, rec.To, rec.SizeWords, rec.Descriptor)
	case wal.ScanRec:
		src := "trap"
		if !rec.Full {
			src = "sweep"
		} else if rec.ScanPtr != word.NilAddr {
			src = "sweep-full"
		}
		return fmt.Sprintf("scan         page=%d %d slots fixed (%s)", rec.Page, len(rec.Fixes), src)
	case wal.GCEndRec:
		return fmt.Sprintf("GCEND        epoch=%d (to-space written back, from-space freed)", rec.Epoch)
	case wal.EndWriteRec:
		return fmt.Sprintf("end-write    page=%d pageLSN=%d", rec.Page, rec.PageLSN)
	case wal.CheckpointRec:
		return fmt.Sprintf("CHECKPOINT   %d dirty pages, %d active txs, GC active=%v, %d LS, %d SRem",
			len(rec.Dirty), len(rec.Txs), rec.GC.Active, len(rec.LS), len(rec.SRem))
	case wal.TwoPCBeginRec:
		return fmt.Sprintf("2pc-begin    gid=%d %d branches (coordinator log)", rec.GID, len(rec.Parts))
	case wal.TwoPCDecideRec:
		return fmt.Sprintf("2PC-DECIDE   gid=%d commit=%v %d branches (forced iff commit)", rec.GID, rec.Commit, len(rec.Parts))
	case wal.TwoPCEndRec:
		return fmt.Sprintf("2pc-end      gid=%d (applied on every branch)", rec.GID)
	default:
		return "?" + r.Type().String()
	}
}
