package storage

import (
	"testing"

	"stableheap/internal/word"
)

// fillLog appends n 8-byte records and forces them, returning their LSNs.
func fillLog(t *testing.T, l *Log, n int) []word.LSN {
	t.Helper()
	lsns := make([]word.LSN, 0, n)
	for i := 0; i < n; i++ {
		lsns = append(lsns, l.Append([]byte("12345678")))
	}
	ForceAll(l)
	return lsns
}

func TestLogScanFromBelowTruncLSNSkipsToRetained(t *testing.T) {
	l := NewLog(16)
	lsns := fillLog(t, l, 8)
	l.Truncate(lsns[4]) // boundary 33: records 0..3 freed

	// Scanning from LSN 1 (below TruncLSN) must deliver exactly the
	// retained records, in order, without inventing or repeating any.
	var seen []word.LSN
	Scan(l, 1, true, func(lsn word.LSN, data []byte) bool {
		seen = append(seen, lsn)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("scan from truncated region saw %d records, want 4", len(seen))
	}
	for i, lsn := range seen {
		if lsn != lsns[4+i] {
			t.Fatalf("scan[%d] = LSN %d, want %d", i, lsn, lsns[4+i])
		}
	}
}

func TestLogScanBatchesAcrossTruncationBoundary(t *testing.T) {
	l := NewLog(16)
	lsns := fillLog(t, l, 8)
	l.Truncate(lsns[4])

	// Batched scan starting exactly at TruncLSN: the first retained record
	// begins at the truncation boundary here (33 = segment boundary + 1
	// with 16-byte segments and 8-byte records), and every batch must stay
	// contiguous: lsn[i+1] == lsn[i] + len(frame[i]).
	if l.TruncLSN() != lsns[4] {
		t.Fatalf("TruncLSN = %d, want %d (test assumes record-aligned boundary)", l.TruncLSN(), lsns[4])
	}
	var got []word.LSN
	prevEnd := word.LSN(0)
	l.ScanBatches(l.TruncLSN(), true, 3, func(ls []word.LSN, frames [][]byte) bool {
		for i := range ls {
			if prevEnd != 0 && ls[i] != prevEnd {
				t.Fatalf("gap in batched scan: record at %d, previous ended at %d", ls[i], prevEnd)
			}
			prevEnd = ls[i] + word.LSN(len(frames[i]))
			got = append(got, ls[i])
		}
		return true
	})
	if len(got) != 4 || got[0] != lsns[4] {
		t.Fatalf("batched scan from TruncLSN saw %v, want the 4 retained records from %d", got, lsns[4])
	}
}

func TestLogTruncateIdempotent(t *testing.T) {
	l := NewLog(16)
	lsns := fillLog(t, l, 8)
	l.Truncate(lsns[4])
	first := l.Stats()
	trunc := l.TruncLSN()

	// Repeating the same truncation (and any keep below the current
	// truncation point) is a no-op: no new segment frees, no stat changes.
	l.Truncate(lsns[4])
	l.Truncate(lsns[2])
	if l.TruncLSN() != trunc {
		t.Fatalf("TruncLSN moved from %d to %d on idempotent truncate", trunc, l.TruncLSN())
	}
	if s := l.Stats(); s.Truncations != first.Truncations || s.BytesDropped != first.BytesDropped {
		t.Fatalf("idempotent truncate changed stats: %+v -> %+v", first, s)
	}
}

func TestLogTruncateKeepsPartialSegment(t *testing.T) {
	// A keep point in the middle of a segment must retain the whole
	// segment: only segments entirely below the boundary are freed.
	l := NewLog(16)
	lsns := fillLog(t, l, 8)
	l.Truncate(lsns[3]) // LSN 25, mid-segment [17,33): boundary is 17
	if l.TruncLSN() != 17 {
		t.Fatalf("TruncLSN = %d, want segment boundary 17", l.TruncLSN())
	}
	if _, ok := l.ReadAt(lsns[2]); !ok {
		t.Fatal("record in the partially-kept segment must survive")
	}
	if _, ok := l.ReadAt(lsns[1]); ok {
		t.Fatal("record in a fully-freed segment must be gone")
	}
}
