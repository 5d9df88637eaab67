package wal

import (
	"bytes"
	"errors"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// Table-driven error-path tests around the torn-tail rule, seen from the
// wal layer: the log cuts a record an interrupted force tore when it is
// opened (the record was never acknowledged), and every frame it delivers
// after that is whole — so a frame that fails to decode is rot, possibly
// of an acknowledged commit, and a scan refuses it with a typed
// CorruptFrameError instead of anything rewinding over it.

func TestRepairTornTailClassification(t *testing.T) {
	cases := []struct {
		name string
		// mutate receives the log after 3 records are appended and forced
		// and a 4th sits in the volatile tail; it injects the scenario's
		// fault (forcing the tail itself when the fault needs a durable
		// final frame) and returns the LSN expected in the outcome (where
		// the reopened log ends, or the corrupt frame's LSN).
		mutate      func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN
		wantCorrupt bool // a scan of the reopened log refuses the frame at the LSN
		survivors   int  // records the reopened log holds
	}{
		{
			name: "whole log is untouched",
			mutate: func(dev *storage.Log, _ rotFunc, _ []word.LSN) word.LSN {
				storage.ForceAll(dev)
				return dev.EndLSN()
			},
			survivors: 4,
		},
		{
			name: "tail torn mid-record",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				dev.CrashTorn(lsns[3] + 10) // past the header, short of the declared length
				return lsns[3]
			},
			survivors: 3,
		},
		{
			name: "tail torn inside the 8-byte frame header",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				dev.CrashTorn(lsns[3] + 2)
				return lsns[3]
			},
			survivors: 3,
		},
		{
			name: "tear on an exact frame boundary leaves a whole log",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				dev.CrashTorn(lsns[3]) // == StableLSN: the force never began
				return lsns[3]
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
			survivors:   4,
		},
		{
			name: "complete final frame with rotted CRC word is corruption",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				storage.ForceAll(dev)
				rot(lsns[3], func(b []byte) { b[4] ^= 0x80 })
				return lsns[3]
			},
			wantCorrupt: true,
			survivors:   4,
		},
		{
			name: "undecodable interior frame with records after it is corruption",
			mutate: func(dev *storage.Log, rot rotFunc, lsns []word.LSN) word.LSN {
				storage.ForceAll(dev)
				rot(lsns[1], func(b []byte) { b[frameHeader] ^= 0xff })
				return lsns[1]
			},
			wantCorrupt: true,
			survivors:   4,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, rot, b := rottableLog(t, 1<<20)
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
			want := tc.mutate(dev, rot, lsns)
			end := dev.EndLSN()
			dev.Abandon()

			re := reopen(t, b)
			if re.EndLSN() != end || (!tc.wantCorrupt && end != want) {
				t.Fatalf("reopened log ends at %d, want %d: the open cut whole records or kept torn ones", re.EndLSN(), end)
			}
			m = NewManager(re)
			n, err := scanAll(m)
			if tc.wantCorrupt {
				var cf *storage.CorruptFrameError
				if !errors.As(err, &cf) || !errors.Is(err, storage.ErrCorrupt) || cf.LSN != want {
					t.Fatalf("scan = %v, want a CorruptFrameError at %d", err, want)
				}
				return // corrupt logs are refused; nothing more to check
			}
			if err != nil || n != tc.survivors {
				t.Fatalf("%d records decode after the reopen (%v), want %d", n, err, tc.survivors)
			}
			// The log goes on from where it ends, and the next open finds
			// the new record whole behind the survivors.
			if lsn := m.Append(CommitRec{TxHdr: TxHdr{TxID: 99}}); lsn != end {
				t.Fatalf("append after the reopen landed at %d, want %d", lsn, end)
			}
			m.ForceAll()
			re.Abandon()
			if n, err := scanAll(NewManager(reopen(t, b))); err != nil || n != tc.survivors+1 {
				t.Fatalf("%d records decode after the append and a second reopen (%v), want %d", n, err, tc.survivors+1)
			}
		})
	}
}

// reopen opens the log held in b, as a restart does.
func reopen(t testing.TB, b storage.Backing) *storage.Log {
	t.Helper()
	l, err := storage.OpenLog(b, 0)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l
}

// scanAll decodes every retained record, returning how many decoded and
// the typed device error a scan panicked with, if any.
func scanAll(m *Manager) (n int, err error) {
	defer func() {
		if v := recover(); v != nil {
			e, ok := storage.AsDeviceError(v)
			if !ok {
				panic(v)
			}
			err = e
		}
	}()
	m.Scan(m.Device().TruncLSN(), false, func(word.LSN, Record) bool { n++; return true })
	return n, nil
}

// TestReadAtErrorKinds pins the three distinct failure modes of
// Manager.ReadAt — reclaimed (ErrTruncated), rotten (ErrCorrupt), and
// plain absent — as disjoint, errors.Is-distinguishable outcomes.
func TestReadAtErrorKinds(t *testing.T) {
	dev, rot, _ := rottableLog(t, 64)
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

// rottableLog returns a log over a memory backing, rot, which rewrites a
// stable record's bytes in its segment file — bit rot under the log, where
// only the checks of the log and the codec can find it — and the backing,
// to reopen the log from. A record is located by its bytes the first time
// it is rotted.
func rottableLog(t testing.TB, segBytes int) (*storage.Log, rotFunc, storage.Backing) {
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
	}, b
}

// TestRepairTornTailRottedLengthIsCorruption: a complete final record whose
// own length prefix rotted to claim more bytes than it holds looks, to the
// frame, like a torn one. The log knows the record is whole — its own
// header says so — so the open keeps it, and the scan refuses it instead
// of anything rewinding an acknowledged commit away.
func TestRepairTornTailRottedLengthIsCorruption(t *testing.T) {
	dev, rot, b := rottableLog(t, 1<<20)
	m := NewManager(dev)
	var lsns []word.LSN
	for i := 0; i < 3; i++ {
		lsns = append(lsns, m.Append(CommitRec{TxHdr: TxHdr{TxID: word.TxID(i + 1)}}))
		m.ForceAll()
	}
	end := dev.EndLSN()
	rot(lsns[2], func(b []byte) { b[1] ^= 0x01 }) // the prefix claims 256 bytes more than the record holds
	dev.Abandon()
	re := reopen(t, b)
	_, err := scanAll(NewManager(re))
	var cf *storage.CorruptFrameError
	if !errors.As(err, &cf) || cf.LSN != lsns[2] {
		t.Fatalf("scan = %v; want a CorruptFrameError at %d", err, lsns[2])
	}
	if re.EndLSN() != end {
		t.Fatalf("the reopen moved EndLSN %d → %d", end, re.EndLSN())
	}
}
