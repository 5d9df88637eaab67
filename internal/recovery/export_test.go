package recovery

import (
	"reflect"
	"slices"

	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// ReadBy names the part of recovery that reads rec, or returns "" when none
// does: "redo" when rec has a footprint; "analysis" when rec is a
// checkpoint (restart starts from its state) or when analysing rec leaves
// some state other than what entering rec into its transaction's chain
// leaves. Undo reads only records that redo also reads.
func ReadBy(rec wal.Record) string {
	if slices.ContainsFunc(footprint(rec, nil), func(s span) bool { return s.n > 0 }) {
		return "redo"
	}
	if cp, ok := rec.(wal.CheckpointRec); ok {
		if reflect.DeepEqual(newAnalysis(ps, cp, 1, false), newAnalysis(ps, wal.CheckpointRec{}, 1, false)) {
			return ""
		}
		return "analysis"
	}
	analyse := func(rec wal.Record) (*analysis, word.LSN) {
		mem, log, _, _ := newRig()
		bootstrap(mem, log)
		lsn := word.NilLSN
		if rec != nil {
			lsn = log.Append(rec)
			log.Force(lsn)
		}
		cpLSN := mem.Disk().Master().CheckpointLSN
		cp, err := log.ReadAt(cpLSN)
		if err != nil {
			panic(err)
		}
		a := newAnalysis(ps, cp.(wal.CheckpointRec), cpLSN, false)
		a.scan(log)
		return a, lsn
	}
	got, lsn := analyse(rec)
	chained, _ := analyse(nil)
	if id := rec.Tx(); id != word.SystemTx {
		chained.touch(id, lsn)
		chained.cp.NextTx = max(chained.cp.NextTx, id+1)
	}
	if reflect.DeepEqual(got, chained) {
		return ""
	}
	return "analysis"
}
