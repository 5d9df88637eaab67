package wal

import (
	"errors"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// fillManager appends n update records and forces them.
func fillManager(m *Manager, n int) []word.LSN {
	lsns := make([]word.LSN, 0, n)
	for i := 0; i < n; i++ {
		lsns = append(lsns, m.Append(UpdateRec{
			TxHdr: TxHdr{TxID: word.TxID(i + 1)},
			Addr:  word.Addr(8 * (i + 1)),
			Redo:  []byte{byte(i)}, Undo: []byte{byte(i)},
		}))
	}
	m.ForceAll()
	return lsns
}

func TestReadAtTruncatedSentinel(t *testing.T) {
	m := NewManager(storage.NewLog(64))
	lsns := fillManager(m, 10)
	m.Truncate(lsns[8])

	if _, err := m.ReadAt(lsns[0]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadAt below TruncLSN: got %v, want ErrTruncated", err)
	}
	// Beyond the end is "no record", NOT truncated.
	if _, err := m.ReadAt(m.EndLSN() + 100); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadAt beyond end: got %v, want plain not-found", err)
	}
	// A non-boundary LSN inside the retained region is also plain not-found.
	if _, err := m.ReadAt(lsns[len(lsns)-1] + 1); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadAt non-boundary: got %v, want plain not-found", err)
	}
}
