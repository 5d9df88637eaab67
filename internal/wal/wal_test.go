package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

func roundTrip(t *testing.T, r Record) {
	t.Helper()
	frame := Encode(r)
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode(%v): %v", r.Type(), err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(r)) {
		t.Fatalf("round trip mismatch for %v:\n got %#v\nwant %#v", r.Type(), got, r)
	}
}

// normalize maps nil and empty slices to a canonical form for comparison.
func normalize(r Record) Record {
	switch rec := r.(type) {
	case UpdateRec:
		rec.Redo = canon(rec.Redo)
		rec.Undo = canon(rec.Undo)
		return rec
	case CLRRec:
		rec.Redo = canon(rec.Redo)
		return rec
	case CopyRec:
		rec.Contents = canon(rec.Contents)
		return rec
	case BaseRec:
		rec.Object = canon(rec.Object)
		return rec
	case V2SCopyRec:
		rec.Object = canon(rec.Object)
		rec.Fixes = canonFixes(rec.Fixes)
		if len(rec.From) == 0 {
			rec.From = nil
		}
		if len(rec.Runs) == 0 {
			rec.Runs = nil
		}
		return rec
	case ScanRec:
		rec.Fixes = canonFixes(rec.Fixes)
		return rec
	case SFixRec:
		rec.Fixes = canonFixes(rec.Fixes)
		return rec
	}
	return r
}

func canonFixes(f []PtrFix) []PtrFix {
	if len(f) == 0 {
		return []PtrFix{}
	}
	return f
}

func canon(b []byte) []byte {
	if len(b) == 0 {
		return []byte{}
	}
	return b
}

// sampleRecords holds at least one record of every live type, with and
// without optional payloads.
func sampleRecords() []Record {
	return []Record{
		UpdateRec{TxHdr: TxHdr{TxID: 7, PrevLSN: 10}, Addr: 0x1000, Obj: 0xff8, Flags: UFPtrSlot, Redo: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Undo: []byte{8, 7, 6, 5, 4, 3, 2, 1}},
		CLRRec{TxHdr: TxHdr{TxID: 7, PrevLSN: 20}, Addr: 0x1008, Redo: []byte{9, 9}, UndoNext: 5},
		AllocRec{TxHdr: TxHdr{TxID: 7, PrevLSN: 30}, Addr: 0x2000, Descriptor: 0xdeadbeef, SizeWords: 12},
		CommitRec{TxHdr{TxID: 7, PrevLSN: 40}},
		EndRec{TxHdr{TxID: 7, PrevLSN: 50}},
		FlipRec{Epoch: 3, FromLo: 0x10000, FromHi: 0x20000, ToLo: 0x20000, ToHi: 0x30000, RootObjFrom: 0x10040, RootObjTo: 0x20000},
		CopyRec{Epoch: 3, From: 0x10080, To: 0x20040, SizeWords: 4, Descriptor: 0x1234},
		CopyRec{Epoch: 3, From: 0x100c0, To: 0x20060, SizeWords: 2, Descriptor: 0x99, Contents: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
		ScanRec{Epoch: 3, Page: 32, Fixes: []PtrFix{{Addr: 0x20048, NewPtr: 0x20090}, {Addr: 0x20050, NewPtr: 0x20100}}},
		ScanRec{Epoch: 3, Page: 33},
		GCEndRec{Epoch: 3},
		BaseRec{TxHdr: TxHdr{TxID: 9, PrevLSN: 60}, Addr: 0x40000, Object: []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
		V2SCopyRec{From: []word.Addr{0x40000}, Runs: []MoveRun{{To: 0x11000, Bytes: 8}}, Object: []byte{3, 0, 0, 0, 0, 0, 0, 0}},
		V2SCopyRec{From: []word.Addr{0x40000, 0x40100, 0x40008, 0x40200}, Runs: []MoveRun{{To: 0x11100, Bytes: 8}, {To: 0x11000, Bytes: 24}, {To: 0x11200, Bytes: 16}},
			Object: make([]byte, 48), Fixes: []PtrFix{{Addr: 0x10008, NewPtr: 0x11100}, {Addr: 0x11018, NewPtr: 0x11200}, {Addr: 0x40408, NewPtr: 0x11000}}},
		V2SCopyRec{Fixes: []PtrFix{{Addr: 0x10008, NewPtr: 0x48000}}},
		SFixRec{Page: 17, Fixes: []PtrFix{{Addr: 0x11008, NewPtr: 0x11010}}},
		VFlipRec{Epoch: 2, Moved: 9},
		LogicalRec{TxHdr: TxHdr{TxID: 4, PrevLSN: 51}, Addr: 0x2040, Obj: 0x2000, Delta: ^uint64(4)},
		PrepareRec{TxHdr{TxID: 4, PrevLSN: 52}},
		TwoPCBeginRec{GID: 3, Parts: []TwoPCParticipant{{Part: 0, TxID: 11}, {Part: 2, TxID: 7}}},
		TwoPCBeginRec{GID: 4},
		TwoPCDecideRec{GID: 3, Commit: true, Parts: []TwoPCParticipant{{Part: 0, TxID: 11}, {Part: 2, TxID: 7}}},
		TwoPCDecideRec{GID: 4, Commit: false},
		TwoPCEndRec{GID: 3},
		EndWriteRec{Page: 88, PageLSN: 123},
		CheckpointRec{
			Dirty:       []DirtyPage{{Page: 3, RecLSN: 44}, {Page: 9, RecLSN: 50}},
			Txs:         []TxEntry{{TxID: 5, FirstLSN: 2, LastLSN: 90, Prepared: true, UTT: []AddrPair{{Orig: 0x100, Cur: 0x200}}}, {TxID: 6, FirstLSN: 7, LastLSN: 8}},
			StableCur:   1,
			VolatileCur: 0,
			RootObj:     0x20000,
			StableAlloc: 0x21000,
			GC: GCState{Active: true, Epoch: 3, FlipLSN: 33, FromLo: 0x10000, FromHi: 0x20000,
				ToLo: 0x20000, ToHi: 0x30000, CopyPtr: 0x20400, ScanPtr: 0x20200, AllocPtr: 0x2ff00,
				Scanned: []bool{true, false, true}, LastObj: []word.Addr{0x20010, 0, 0x20800}},
			LS:        []word.Addr{0x40010, 0x40080},
			SRem:      []word.Addr{0x20048},
			NextTx:    10,
			NextEpoch: 4,
		},
		CheckpointRec{}, // empty checkpoint must survive too
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, r := range sampleRecords() {
		roundTrip(t, r)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame := Encode(CommitRec{TxHdr{TxID: 1, PrevLSN: 2}})
	// Flip a payload bit: CRC must catch it.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("corrupted payload must fail CRC")
	}
	// Truncate the frame: length check must catch it.
	if _, err := Decode(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame must be rejected")
	}
	// Too-short buffer.
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Fatal("short buffer must be rejected")
	}
}

// rawFrame wraps an arbitrary payload (type tag + body) in a valid frame
// header, for tests that need well-framed but semantically bogus records.
func rawFrame(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	copy(frame[frameHeader:], payload)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[frameHeader:]))
	return frame
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	payload := make([]byte, 9)
	payload[0] = uint8(maxType) + 5
	binary.LittleEndian.PutUint64(payload[1:], 1)
	if _, err := Decode(rawFrame(payload)); err == nil {
		t.Fatal("unknown type must be rejected")
	}
	// The retired types keep their numbers, so no live type moved, and a
	// frame an older build wrote with one is refused by name: a begin or
	// an abort record (type + transaction header), a page-fetch (type +
	// page) and a complete record (type + transaction header + count).
	if TBegin != 1 || TAbort != 6 || TEnd != 7 || TComplete != 13 || TV2SCopy != 14 || TPageFetch != 17 || TEndWrite != 18 || TTwoPCEnd != 24 {
		t.Fatalf("record type numbers moved: begin %d abort %d end %d complete %d v2scopy %d pagefetch %d endwrite %d 2pc-end %d",
			TBegin, TAbort, TEnd, TComplete, TV2SCopy, TPageFetch, TEndWrite, TTwoPCEnd)
	}
	var retired []Type
	for ty := TInvalid; ty < maxType; ty++ {
		if ty.Retired() {
			retired = append(retired, ty)
		}
	}
	if want := []Type{TBegin, TAbort, TComplete, TPageFetch}; !slices.Equal(retired, want) {
		t.Fatalf("retired types %v, want %v", retired, want)
	}
	for _, c := range []struct {
		typ  Type
		body int
		name string
	}{{TBegin, 16, "begin"}, {TAbort, 16, "abort"}, {TPageFetch, 8, "pagefetch"}, {TComplete, 24, "complete"}} {
		payload := make([]byte, 1+c.body)
		payload[0] = uint8(c.typ)
		_, err := Decode(rawFrame(payload))
		if err == nil || !strings.Contains(err.Error(), "retired record type "+c.name) {
			t.Errorf("%s frame: err = %v, want it refused by name", c.name, err)
		}
	}
}

// parentLayoutCheckpoint frames cp the way the layout before a rollback's
// state became its CLRs alone laid it out: a bare transaction count, and
// each entry with an Aborting flag after LastLSN and an UndoNext LSN after
// Prepared.
func parentLayoutCheckpoint(cp CheckpointRec, aborting bool, undoNext word.LSN) []byte {
	tail := cp
	tail.Dirty, tail.Txs = nil, nil
	rest := Encode(tail)[frameHeader+1+8+8:] // past the type and the two empty counts
	b := []byte{uint8(TCheckpoint)}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(cp.Dirty)))
	for _, dp := range cp.Dirty {
		b = binary.LittleEndian.AppendUint64(b, uint64(dp.Page))
		b = binary.LittleEndian.AppendUint64(b, uint64(dp.RecLSN))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(cp.Txs)))
	flag := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for _, te := range cp.Txs {
		b = binary.LittleEndian.AppendUint64(b, uint64(te.TxID))
		b = binary.LittleEndian.AppendUint64(b, uint64(te.FirstLSN))
		b = binary.LittleEndian.AppendUint64(b, uint64(te.LastLSN))
		b = append(b, flag(aborting), flag(te.Prepared))
		b = binary.LittleEndian.AppendUint64(b, uint64(undoNext))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(te.UTT)))
		for _, p := range te.UTT {
			b = binary.LittleEndian.AppendUint64(b, uint64(p.At))
			b = binary.LittleEndian.AppendUint64(b, uint64(p.Orig))
			b = binary.LittleEndian.AppendUint64(b, uint64(p.Cur))
		}
	}
	return rawFrame(append(b, rest...))
}

// TestDecodeParentLayoutCheckpoint: a checkpoint an older build wrote with
// an empty transaction table — every cleanly closed heap's — decodes
// unchanged, and one that lists transactions is refused, whatever its
// entries hold, never misread as the current layout.
func TestDecodeParentLayoutCheckpoint(t *testing.T) {
	cp := CheckpointRec{
		Dirty:       []DirtyPage{{Page: 3, RecLSN: 44}},
		StableCur:   1,
		RootObj:     0x20000,
		StableAlloc: 0x21000,
		GC:          GCState{Scanned: []bool{true, false}, LastObj: []word.Addr{0x20010, 0}},
		LS:          []word.Addr{0x40010},
		SRem:        []word.Addr{0x20048},
		VolatileLo:  0x80000,
		VolatileHi:  0x90000,
		NextTx:      10,
		NextEpoch:   4,
	}
	old := parentLayoutCheckpoint(cp, false, word.NilLSN)
	if !bytes.Equal(old, Encode(cp)) {
		t.Fatal("an empty transaction table is laid out differently from the older layout")
	}
	roundTrip(t, cp)
	got, err := Decode(old)
	if err != nil || !reflect.DeepEqual(normalize(got), normalize(cp)) {
		t.Fatalf("older empty-table checkpoint: %v, %#v", err, got)
	}
	for _, c := range []struct {
		txs      []TxEntry
		aborting bool
		undoNext word.LSN
	}{
		{[]TxEntry{{TxID: 5, FirstLSN: 2, LastLSN: 90}}, false, word.NilLSN},
		{[]TxEntry{{TxID: 5, FirstLSN: 2, LastLSN: 90, Prepared: true}}, false, word.NilLSN},
		{[]TxEntry{{TxID: 5, FirstLSN: 2, LastLSN: 90, UTT: []AddrPair{{At: 40, Orig: 0x100, Cur: 0x200}}}}, true, 80},
		{[]TxEntry{{TxID: 5, FirstLSN: 2, LastLSN: 90}, {TxID: 6, FirstLSN: 91, LastLSN: 95, Prepared: true}}, false, word.NilLSN},
	} {
		listed := cp
		listed.Txs = c.txs
		_, err := Decode(parentLayoutCheckpoint(listed, c.aborting, c.undoNext))
		if err == nil || !strings.Contains(err.Error(), "retired layout") {
			t.Errorf("older checkpoint listing %d transactions: err = %v, want it refused", len(c.txs), err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	payload := make([]byte, 17)
	payload[0] = uint8(TGCEnd)
	binary.LittleEndian.PutUint64(payload[1:], 1)
	binary.LittleEndian.PutUint64(payload[9:], 99) // junk beyond the GCEnd payload
	if _, err := Decode(rawFrame(payload)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(tx uint32, prev uint32, addr uint32, redo, undo []byte) bool {
		r := UpdateRec{
			TxHdr: TxHdr{TxID: word.TxID(tx), PrevLSN: word.LSN(prev)},
			Addr:  word.Addr(addr),
			Redo:  redo, Undo: undo,
		}
		got, err := Decode(Encode(r))
		if err != nil {
			return false
		}
		u, ok := got.(UpdateRec)
		return ok && u.TxID == r.TxID && u.PrevLSN == r.PrevLSN && u.Addr == r.Addr &&
			bytes.Equal(u.Redo, redo) && bytes.Equal(u.Undo, undo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTripProperty(t *testing.T) {
	f := func(pages []uint16, lsns []uint32, scanned []bool) bool {
		c := CheckpointRec{NextTx: 3, NextEpoch: 7}
		for i, p := range pages {
			lsn := word.LSN(1)
			if i < len(lsns) {
				lsn = word.LSN(lsns[i]) + 1
			}
			c.Dirty = append(c.Dirty, DirtyPage{Page: word.PageID(p), RecLSN: lsn})
		}
		c.GC.Scanned = scanned
		got, err := Decode(Encode(c))
		if err != nil {
			return false
		}
		g, ok := got.(CheckpointRec)
		if !ok || len(g.Dirty) != len(c.Dirty) || len(g.GC.Scanned) != len(scanned) {
			return false
		}
		for i := range c.Dirty {
			if g.Dirty[i] != c.Dirty[i] {
				return false
			}
		}
		for i := range scanned {
			if g.GC.Scanned[i] != scanned[i] {
				return false
			}
		}
		return g.NextTx == 3 && g.NextEpoch == 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestManagerAppendScan(t *testing.T) {
	m := NewManager(storage.NewLog(0))
	l1 := m.Append(AllocRec{TxHdr: TxHdr{TxID: 1}, Addr: 8, Descriptor: 1, SizeWords: 1})
	l2 := m.Append(UpdateRec{TxHdr: TxHdr{TxID: 1, PrevLSN: l1}, Addr: 8, Redo: []byte{1}, Undo: []byte{0}})
	l3 := m.Append(CommitRec{TxHdr{TxID: 1, PrevLSN: l2}})
	if !(l1 < l2 && l2 < l3) {
		t.Fatal("LSNs must increase")
	}
	var types []Type
	m.Scan(l1, false, func(_ word.LSN, r Record) bool {
		types = append(types, r.Type())
		return true
	})
	want := []Type{TAlloc, TUpdate, TCommit}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("scan types = %v, want %v", types, want)
	}
}

func TestManagerStableOnlyScanHidesTail(t *testing.T) {
	m := NewManager(storage.NewLog(0))
	l1 := m.Append(AllocRec{TxHdr: TxHdr{TxID: 1}, Addr: 8, Descriptor: 1, SizeWords: 1})
	m.Force(l1)
	m.Append(CommitRec{TxHdr{TxID: 1, PrevLSN: l1}})
	n := 0
	m.Scan(1, true, func(word.LSN, Record) bool { n++; return true })
	if n != 1 {
		t.Fatalf("stable-only scan saw %d records, want 1", n)
	}
}

func TestManagerReadAt(t *testing.T) {
	m := NewManager(storage.NewLog(0))
	lsn := m.Append(GCEndRec{Epoch: 9})
	r, err := m.ReadAt(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := r.(GCEndRec); !ok || g.Epoch != 9 {
		t.Fatalf("got %#v", r)
	}
	if _, err := m.ReadAt(lsn + 1); err == nil {
		t.Fatal("ReadAt mid-record must error")
	}
}

func TestManagerPrevLSNChainWalk(t *testing.T) {
	m := NewManager(storage.NewLog(0))
	l1 := m.Append(AllocRec{TxHdr: TxHdr{TxID: 4}, Addr: 8, Descriptor: 1, SizeWords: 1})
	l2 := m.Append(UpdateRec{TxHdr: TxHdr{TxID: 4, PrevLSN: l1}, Addr: 8, Redo: []byte{1}, Undo: []byte{0}})
	l3 := m.Append(UpdateRec{TxHdr: TxHdr{TxID: 4, PrevLSN: l2}, Addr: 16, Redo: []byte{2}, Undo: []byte{1}})
	// Walk the chain backwards from l3.
	var visited []word.LSN
	for lsn := l3; lsn != word.NilLSN; {
		visited = append(visited, lsn)
		switch r := m.MustReadAt(lsn).(type) {
		case UpdateRec:
			lsn = r.PrevLSN
		case AllocRec:
			lsn = r.PrevLSN
		default:
			t.Fatalf("unexpected record %T", r)
		}
	}
	if !reflect.DeepEqual(visited, []word.LSN{l3, l2, l1}) {
		t.Fatalf("chain walk = %v", visited)
	}
}

func TestManagerVolumeByClass(t *testing.T) {
	m := NewManager(storage.NewLog(0))
	m.Append(CommitRec{TxHdr{TxID: 1}})
	m.Append(CopyRec{Epoch: 1, From: 8, To: 16, SizeWords: 2, Descriptor: 1})
	m.Append(BaseRec{TxHdr: TxHdr{TxID: 1}, Addr: 8, Object: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	m.Append(EndWriteRec{Page: 1})
	tx, gc, track, book := m.VolumeByClass()
	if tx == 0 || gc == 0 || track == 0 || book == 0 {
		t.Fatalf("all classes must be nonzero: %d %d %d %d", tx, gc, track, book)
	}
	cnt, b := m.TypeStats(TCopy)
	if cnt != 1 || b == 0 {
		t.Fatalf("TypeStats(TCopy) = %d, %d", cnt, b)
	}
	// Every live type lands in one class: the classes sum to what was
	// appended, whatever the mix.
	sampled := map[Type]bool{}
	for _, r := range sampleRecords() {
		m.Append(r)
		sampled[r.Type()] = true
	}
	for ty := Type(1); ty < maxType; ty++ {
		if ty.Retired() {
			continue
		}
		if !sampled[ty] {
			t.Errorf("sampleRecords has no %v record", ty)
		}
	}
	tx, gc, track, book = m.VolumeByClass()
	if sum, appended := tx+gc+track+book, m.Device().Stats().BytesAppended; sum != appended {
		t.Fatalf("classes sum to %d bytes, %d appended (tx %d gc %d track %d book %d)",
			sum, appended, tx, gc, track, book)
	}
	m.ResetStats()
	if c, _ := m.TypeStats(TCopy); c != 0 {
		t.Fatal("ResetStats must zero counters")
	}
}

func TestManagerCrashLosesVolatileRecords(t *testing.T) {
	dev := storage.NewLog(0)
	m := NewManager(dev)
	l1 := m.Append(AllocRec{TxHdr: TxHdr{TxID: 1}, Addr: 8, Descriptor: 1, SizeWords: 1})
	m.Force(l1)
	l2 := m.Append(CommitRec{TxHdr{TxID: 1, PrevLSN: l1}})
	dev.Crash()
	if _, err := m.ReadAt(l2); err == nil {
		t.Fatal("unforced commit record must not survive a crash")
	}
	if _, err := m.ReadAt(l1); err != nil {
		t.Fatal("forced record must survive a crash")
	}
}
