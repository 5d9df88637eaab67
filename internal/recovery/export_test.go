package recovery

import "stableheap/internal/wal"

// Table exposes the applier's dirty page table to the external test
// package, which imports crashtest (and crashtest imports recovery).
func (ap *Applier) Table() []wal.DirtyPage { return ap.red.dpt.sorted() }
