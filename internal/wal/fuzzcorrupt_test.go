package wal

import (
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// FuzzLogScanCorrupt is the detection contract over a whole log image:
// fuzz-driven bit flips are sprayed into the stable frames of a valid log,
// the log is reopened from its bytes, and a scan from the truncation point
// must then either
//
//   - surface a typed corruption error (the scan panics with
//     *storage.CorruptFrameError), or
//   - yield only frames whose CRC still verifies, each of which re-encodes
//     byte-identically to what the log holds.
//
// Rot never makes a tear: the reopen keeps every whole record, so it ends
// where the log did. What the scan must never do is return a record that
// differs from the bytes in the log, or fail with an untyped error/panic —
// "successful but wrong" and "crashed without naming the frame" are both
// bugs.
func FuzzLogScanCorrupt(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff})
	f.Add([]byte{1, 9, 0x01, 2, 40, 0x80})
	f.Add([]byte{3, 0, 0x10, 3, 1, 0x10, 3, 2, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		dev, rot, b := rottableLog(t, 1<<20)
		m := NewManager(dev)
		recs := []Record{
			UpdateRec{TxHdr: TxHdr{TxID: 1}, Addr: 64, Redo: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Undo: []byte{9, 10, 11, 12, 13, 14, 15, 16}},
			CommitRec{TxHdr: TxHdr{TxID: 1, PrevLSN: 1}},
			ScanRec{Epoch: 4, Page: 2, Fixes: []PtrFix{{Addr: 8, NewPtr: 16}}},
			CopyRec{Epoch: 4, From: 8, To: 16, SizeWords: 1, Descriptor: 3, Contents: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			CheckpointRec{Dirty: []DirtyPage{{Page: 2, RecLSN: 1}}},
		}
		lsns := make([]word.LSN, 0, len(recs))
		for _, r := range recs {
			lsns = append(lsns, m.Append(r))
		}
		m.ForceAll()

		// Spray the fuzz input over the image as (frame, offset, mask)
		// triples. Mask 0 would be a no-op flip; force at least one bit.
		for i := 0; i+2 < len(data); i += 3 {
			frame := lsns[int(data[i])%len(lsns)]
			off, mask := int(data[i+1]), data[i+2]|1
			rot(frame, func(b []byte) {
				b[off%len(b)] ^= mask
			})
		}

		end := dev.EndLSN()
		dev.Abandon()
		dev = reopen(t, b)
		if dev.EndLSN() != end {
			t.Fatalf("the reopen moved the end of rotted whole records %d → %d", end, dev.EndLSN())
		}
		m = NewManager(dev)

		defer func() {
			if r := recover(); r != nil {
				if _, ok := storage.AsDeviceError(r); !ok {
					t.Fatalf("scan panicked untypedly: %v", r)
				}
			}
		}()
		seen := 0
		m.Scan(dev.TruncLSN(), false, func(lsn word.LSN, rec Record) bool {
			raw, ok := dev.ReadAt(lsn)
			if !ok {
				t.Fatalf("scan yielded LSN %d the device cannot read", lsn)
			}
			if got := Encode(rec); string(got) != string(raw) {
				t.Fatalf("LSN %d: scanned record does not match device bytes:\ndev %x\nenc %x", lsn, raw, got)
			}
			seen++
			return true
		})
		// A clean pass must have seen every frame (flips that cancel out,
		// or an empty fuzz input, keep all five).
		if seen != len(lsns) {
			t.Fatalf("clean scan saw %d of %d frames", seen, len(lsns))
		}
	})
}
