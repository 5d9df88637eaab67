package wal

import (
	"bytes"
	"errors"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// Table-driven error-path tests around the torn-tail classifier: the one
// place that must distinguish "a force was interrupted" (repairable —
// the record was never acknowledged) from "a complete frame rotted"
// (corruption — it may be an acknowledged commit, so recovery must
// refuse, not silently rewind over it).

func TestRepairTornTailClassification(t *testing.T) {
	cases := []struct {
		name string
		// mutate receives the device after 3 records are appended and
		// forced and a 4th sits in the volatile tail; it injects the
		// scenario's fault (forcing the tail itself when the fault needs a
		// durable final frame) and returns the LSN expected in the outcome
		// (torn LSN or corrupt-frame LSN, per the want fields).
		mutate      func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN
		wantTorn    bool // RepairTornTail rewinds and returns the LSN
		wantCorrupt bool // RepairTornTail returns a CorruptFrameError at the LSN
		survivors   int  // records decodable after the call
	}{
		{
			name: "whole log is untouched",
			mutate: func(dev *storage.Log, _ rotFunc, _ []word.LSN) word.LSN {
				storage.ForceAll(dev)
				return word.NilLSN
			},
			survivors: 4,
		},
		{
			name: "tail torn mid-record",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				dev.CrashTorn(lsns[3] + 10) // past the header, short of the declared length
				return lsns[3]
			},
			wantTorn:  true,
			survivors: 3,
		},
		{
			name: "tail torn inside the 8-byte frame header",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				dev.CrashTorn(lsns[3] + 2)
				return lsns[3]
			},
			wantTorn:  true,
			survivors: 3,
		},
		{
			name: "tear on an exact frame boundary leaves a whole log",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				dev.CrashTorn(lsns[3]) // == StableLSN: the force never began
				return word.NilLSN
			},
			survivors: 3,
		},
		{
			name: "complete final frame with rotted payload is corruption, not a tear",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				storage.ForceAll(dev)
				rot(lsns[3], func(b []byte) { b[len(b)-1] ^= 0x01 })
				return lsns[3]
			},
			wantCorrupt: true,
		},
		{
			name: "complete final frame with rotted CRC word is corruption",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				storage.ForceAll(dev)
				rot(lsns[3], func(b []byte) { b[4] ^= 0x80 })
				return lsns[3]
			},
			wantCorrupt: true,
		},
		{
			name: "undecodable interior frame with records after it is corruption",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				storage.ForceAll(dev)
				rot(lsns[1], func(b []byte) { b[frameHeader] ^= 0xff })
				return lsns[1]
			},
			wantCorrupt: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, rot := rottableLog(t, 1<<20)
			m := NewManager(dev)
			var lsns []word.LSN
			for i := 0; i < 4; i++ {
				if i == 3 {
					m.ForceAll() // the 4th record stays in the volatile tail
				}
				lsns = append(lsns, m.Append(UpdateRec{
					TxHdr: TxHdr{TxID: word.TxID(i + 1)},
					Addr:  word.Addr(8 * (i + 1)),
					Redo:  []byte{byte(i), 1, 2, 3, 4, 5, 6, 7},
					Undo:  []byte{byte(i), 7, 6, 5, 4, 3, 2, 1},
				}))
			}
			wantLSN := tc.mutate(dev, rot, lsns)

			torn, err := m.RepairTornTail(dev.TruncLSN())
			switch {
			case tc.wantCorrupt:
				var cf *storage.CorruptFrameError
				if !errors.As(err, &cf) {
					t.Fatalf("got (torn=%d, err=%v), want CorruptFrameError", torn, err)
				}
				if cf.LSN != wantLSN {
					t.Fatalf("corrupt frame reported at %d, want %d", cf.LSN, wantLSN)
				}
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("corrupt-frame error does not match ErrCorrupt: %v", err)
				}
				return // corrupt devices are refused; nothing more to check
			case tc.wantTorn:
				if err != nil || torn != wantLSN {
					t.Fatalf("got (torn=%d, err=%v), want repaired at %d", torn, err, wantLSN)
				}
				if dev.EndLSN() != wantLSN {
					t.Fatalf("device not rewound: end=%d, want %d", dev.EndLSN(), wantLSN)
				}
			default:
				if err != nil || torn != word.NilLSN {
					t.Fatalf("got (torn=%d, err=%v), want whole log", torn, err)
				}
			}

			// After a clean or repaired classification every retained record
			// decodes, and a fresh append lands at the repaired position.
			n := 0
			m.Scan(dev.TruncLSN(), false, func(word.LSN, Record) bool { n++; return true })
			if n != tc.survivors {
				t.Fatalf("%d records decode after repair, want %d", n, tc.survivors)
			}
			end := dev.EndLSN()
			if lsn := m.Append(CommitRec{TxHdr: TxHdr{TxID: 99}}); lsn != end {
				t.Fatalf("append after repair landed at %d, want %d", lsn, end)
			}
		})
	}
}

// TestReadAtErrorKinds pins the three distinct failure modes of
// Manager.ReadAt — reclaimed (ErrTruncated), rotten (ErrCorrupt), and
// plain absent — as disjoint, errors.Is-distinguishable outcomes.
func TestReadAtErrorKinds(t *testing.T) {
	dev, rot := rottableLog(t, 64)
	m := NewManager(dev)
	var lsns []word.LSN
	for i := 0; i < 12; i++ {
		lsns = append(lsns, m.Append(UpdateRec{
			TxHdr: TxHdr{TxID: word.TxID(i + 1)}, Addr: 8,
			Redo: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Undo: []byte{8, 7, 6, 5, 4, 3, 2, 1},
		}))
	}
	m.ForceAll()
	m.Truncate(lsns[8])
	rotted := lsns[10]
	rot(rotted, func(b []byte) { b[frameHeader] ^= 0x40 })

	cases := []struct {
		name          string
		lsn           word.LSN
		wantTruncated bool
		wantCorrupt   bool
	}{
		{"below the truncation point", lsns[0], true, false},
		{"retained and intact", lsns[9], false, false},
		{"retained but rotted", rotted, false, true},
		{"beyond the end", m.EndLSN() + 64, false, false},
		{"non-boundary interior offset", lsns[9] + 1, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := m.ReadAt(tc.lsn)
			if got := errors.Is(err, ErrTruncated); got != tc.wantTruncated {
				t.Fatalf("errors.Is(err, ErrTruncated) = %v, want %v (err=%v)", got, tc.wantTruncated, err)
			}
			if got := errors.Is(err, storage.ErrCorrupt); got != tc.wantCorrupt {
				t.Fatalf("errors.Is(err, ErrCorrupt) = %v, want %v (err=%v)", got, tc.wantCorrupt, err)
			}
			if tc.wantCorrupt {
				var cf *storage.CorruptFrameError
				if !errors.As(err, &cf) || cf.LSN != tc.lsn {
					t.Fatalf("corrupt read did not name the frame: %v", err)
				}
			}
			if tc.name == "retained and intact" && (err != nil || rec == nil) {
				t.Fatalf("intact read failed: %v", err)
			}
		})
	}
}

// rotFunc applies fn, in place, to the stored bytes of the record at lsn.
type rotFunc func(lsn word.LSN, fn func(frame []byte))

// rottableLog returns a log over a memory backing the test keeps, and rot,
// which rewrites a stable record's bytes in its segment file — bit rot
// under the log, where only the checks of the log and the codec can find
// it. A record is located by its bytes the first time it is rotted.
func rottableLog(t testing.TB, segBytes int) (*storage.Log, rotFunc) {
	b := storage.NewMemBacking()
	dev, err := storage.OpenLog(b, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	type place struct {
		file string
		off  int64
		n    int
	}
	found := map[word.LSN]place{}
	return dev, func(lsn word.LSN, fn func([]byte)) {
		p, ok := found[lsn]
		if !ok {
			frame, _ := dev.ReadAt(lsn)
			names, _ := b.List("seg-")
			for _, name := range names {
				f, _ := b.Open(name, false)
				size, _ := f.Size()
				buf := make([]byte, size)
				f.ReadAt(buf, 0)
				if i := bytes.Index(buf, frame); i >= 0 && len(frame) > 0 {
					p, ok = place{name, int64(i), len(frame)}, true
					break
				}
			}
			if !ok {
				t.Fatalf("no stable record at LSN %d to rot", lsn)
			}
			found[lsn] = p
		}
		f, _ := b.Open(p.file, false)
		buf := make([]byte, p.n)
		f.ReadAt(buf, p.off)
		fn(buf)
		f.WriteAt(buf, p.off)
	}
}

// TestRepairTornTailRottedLengthIsCorruption: a complete final record whose
// own length prefix rotted to claim more bytes than it holds looks, to the
// frame, like a torn one. The log knows the record is whole, so the repair
// refuses it instead of rewinding an acknowledged commit away.
func TestRepairTornTailRottedLengthIsCorruption(t *testing.T) {
	dev, rot := rottableLog(t, 1<<20)
	m := NewManager(dev)
	var lsns []word.LSN
	for i := 0; i < 3; i++ {
		lsns = append(lsns, m.Append(CommitRec{TxHdr: TxHdr{TxID: word.TxID(i + 1)}}))
		m.ForceAll()
	}
	end := dev.EndLSN()
	rot(lsns[2], func(b []byte) { b[1] ^= 0x01 }) // the prefix claims 256 bytes more than the record holds
	torn, err := m.RepairTornTail(1)
	var cf *storage.CorruptFrameError
	if !errors.As(err, &cf) || cf.LSN != lsns[2] {
		t.Fatalf("RepairTornTail = %d, %v; want a CorruptFrameError at %d", torn, err, lsns[2])
	}
	if dev.EndLSN() != end {
		t.Fatalf("the refused repair moved EndLSN %d → %d", end, dev.EndLSN())
	}
}
