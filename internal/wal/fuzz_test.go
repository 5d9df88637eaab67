package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"stableheap/internal/word"
)

// TestDecodeNeverPanicsOnGarbage feeds random byte soup to the decoder:
// it must reject cleanly (error), never panic or over-read.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanicsOnMutatedFrames flips random bits/bytes in valid
// frames: decoding must either detect the corruption or produce a record —
// never panic. (A flipped length prefix or truncated payload is the
// classic torn-write shape.)
func TestDecodeNeverPanicsOnMutatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	recs := []Record{
		UpdateRec{TxHdr: TxHdr{TxID: 5, PrevLSN: 9}, Addr: 0x1000, Redo: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Undo: []byte{8, 7, 6, 5}},
		CheckpointRec{
			Dirty: []DirtyPage{{Page: 3, RecLSN: 44}},
			Txs:   []TxEntry{{TxID: 5, FirstLSN: 2, LastLSN: 90, UTT: []AddrPair{{Orig: 1, Cur: 2}}}},
			GC:    GCState{Active: true, Scanned: []bool{true, false}},
		},
		ScanRec{Epoch: 2, Page: 7, Fixes: []PtrFix{{Addr: 8, NewPtr: 16}}},
		CopyRec{Epoch: 1, From: 8, To: 16, SizeWords: 2, Descriptor: 7, Contents: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		BaseRec{TxHdr: TxHdr{TxID: 2}, Addr: 0x40, Object: make([]byte, 24)},
	}
	for round := 0; round < 3000; round++ {
		frame := append([]byte(nil), Encode(recs[rng.Intn(len(recs))])...)
		switch rng.Intn(3) {
		case 0: // flip a bit
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
		case 1: // truncate
			frame = frame[:rng.Intn(len(frame))]
		case 2: // splice garbage into the middle
			if len(frame) > 4 {
				frame[4+rng.Intn(len(frame)-4)] = byte(rng.Intn(256))
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on mutated frame %x: %v", frame, r)
				}
			}()
			_, _ = Decode(frame)
		}()
	}
}

// TestEncodeDecodeRandomRecordsProperty round-trips randomly shaped
// records of every transactional type.
func TestEncodeDecodeRandomRecordsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 500; i++ {
		var r Record
		switch rng.Intn(6) {
		case 0:
			r = UpdateRec{TxHdr: TxHdr{TxID: word.TxID(1 + rng.Uint64()%100), PrevLSN: word.LSN(1 + rng.Uint64()%1000)},
				Addr: word.Addr(8 * (1 + rng.Uint64()%1000)), Flags: uint8(rng.Intn(4)),
				Redo: randBytes(1 + rng.Intn(64)), Undo: randBytes(1 + rng.Intn(64))}
		case 1:
			r = CLRRec{TxHdr: TxHdr{TxID: 1}, Addr: 8, Flags: uint8(rng.Intn(4)),
				Redo: randBytes(8), UndoNext: word.LSN(rng.Uint64() % 500)}
		case 2:
			r = BaseRec{TxHdr: TxHdr{TxID: 2}, Addr: 8, Object: randBytes(8 * (1 + rng.Intn(32)))}
		case 3:
			n := 1 + rng.Intn(4)
			rec := V2SCopyRec{Fixes: make([]PtrFix, rng.Intn(8))}
			for j := 0; j < n; j++ {
				img := randBytes(8 * (1 + rng.Intn(8)))
				rec.From = append(rec.From, word.Addr(8*(1+rng.Uint64()%500)))
				rec.Runs = append(rec.Runs, MoveRun{To: word.Addr(8 * (1 + rng.Uint64()%500)), Bytes: len(img)})
				rec.Object = append(rec.Object, img...)
			}
			for j := range rec.Fixes {
				rec.Fixes[j] = PtrFix{Addr: word.Addr(8 * (1 + rng.Uint64()%500)), NewPtr: word.Addr(8 * (1 + rng.Uint64()%500))}
			}
			r = rec
		case 4:
			fixes := make([]PtrFix, rng.Intn(20))
			for j := range fixes {
				fixes[j] = PtrFix{Addr: word.Addr(8 * (1 + rng.Uint64()%500)), NewPtr: word.Addr(8 * (1 + rng.Uint64()%500))}
			}
			r = ScanRec{Epoch: rng.Uint64(), Page: word.PageID(1 + rng.Uint64()%100), Full: rng.Intn(2) == 0,
				ScanPtr: word.Addr(8 * (rng.Uint64() % 500)), Fixes: fixes}
		default:
			r = CopyRec{Epoch: rng.Uint64(), From: 8, To: 16,
				SizeWords: 1 + rng.Intn(100), Descriptor: rng.Uint64(), Contents: randBytes(rng.Intn(64))}
		}
		got, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("round %d: decode: %v", i, err)
		}
		a, b := Encode(got), Encode(r)
		if string(a) != string(b) {
			t.Fatalf("round %d: re-encode differs for %T", i, r)
		}
	}
}

// TestScanCopyRoundTripZeroCopy round-trips randomly shaped ScanRec.Fixes
// and CopyRec.Contents through the zero-copy decoder. Decoded byte fields
// must alias the frame (no copy) with their capacity clipped to length, so
// an append by the caller can never scribble over neighbouring frame bytes.
func TestScanCopyRoundTripZeroCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 1500; i++ {
		fixes := make([]PtrFix, rng.Intn(40))
		for j := range fixes {
			fixes[j] = PtrFix{Addr: word.Addr(rng.Uint64()), NewPtr: word.Addr(rng.Uint64())}
		}
		sr := ScanRec{Epoch: rng.Uint64(), Page: word.PageID(rng.Uint64() % 1e6),
			Full: rng.Intn(2) == 0, ScanPtr: word.Addr(rng.Uint64()), Fixes: fixes}
		got, err := Decode(Encode(sr))
		if err != nil {
			t.Fatalf("round %d: scan decode: %v", i, err)
		}
		gs := got.(ScanRec)
		if len(gs.Fixes) != len(fixes) {
			t.Fatalf("round %d: %d fixes decoded, want %d", i, len(gs.Fixes), len(fixes))
		}
		for j := range fixes {
			if gs.Fixes[j] != fixes[j] {
				t.Fatalf("round %d: fix %d = %+v, want %+v", i, j, gs.Fixes[j], fixes[j])
			}
		}

		size := 1 + rng.Intn(100)
		var contents []byte
		if rng.Intn(2) == 0 { // content-carrying half the time
			contents = randBytes(word.WordsToBytes(size))
		}
		cr := CopyRec{Epoch: rng.Uint64(), From: word.Addr(8 * (1 + rng.Uint64()%1000)),
			To: word.Addr(8 * (1 + rng.Uint64()%1000)), SizeWords: size,
			Descriptor: rng.Uint64(), Contents: contents}
		frame := Encode(cr)
		got2, err := Decode(frame)
		if err != nil {
			t.Fatalf("round %d: copy decode: %v", i, err)
		}
		gc := got2.(CopyRec)
		if len(gc.Contents) != len(contents) {
			t.Fatalf("round %d: %d content bytes decoded, want %d", i, len(gc.Contents), len(contents))
		}
		for j := range contents {
			if gc.Contents[j] != contents[j] {
				t.Fatalf("round %d: content byte %d differs", i, j)
			}
		}
		if len(gc.Contents) > 0 {
			alias := false
			for off := range frame {
				if &frame[off] == &gc.Contents[0] {
					alias = true
					break
				}
			}
			if !alias {
				t.Fatalf("round %d: decoded Contents does not alias the frame", i)
			}
			if cap(gc.Contents) != len(gc.Contents) {
				t.Fatalf("round %d: aliased Contents must be capacity-clipped (len %d cap %d)",
					i, len(gc.Contents), cap(gc.Contents))
			}
		}
	}
}

// TestDecodeBoundsCRCValidMutations re-seals the CRC after each mutation so
// the corruption reaches the field decoders (length prefixes, fix counts)
// instead of being stopped at the checksum: the zero-copy decoder's bounds
// checks must reject or decode cleanly — never panic or over-read.
func TestDecodeBoundsCRCValidMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	base := []Record{
		ScanRec{Epoch: 9, Page: 4, Full: true, ScanPtr: 128,
			Fixes: []PtrFix{{Addr: 8, NewPtr: 16}, {Addr: 24, NewPtr: 32}, {Addr: 40, NewPtr: 48}}},
		CopyRec{Epoch: 3, From: 8, To: 512, SizeWords: 4, Descriptor: 77,
			Contents: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
				17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}},
		SFixRec{Page: 2, Fixes: []PtrFix{{Addr: 8, NewPtr: 16}}},
		UpdateRec{TxHdr: TxHdr{TxID: 1, PrevLSN: 3}, Addr: 64,
			Redo: make([]byte, 16), Undo: make([]byte, 8)},
	}
	for round := 0; round < 4000; round++ {
		frame := append([]byte(nil), Encode(base[rng.Intn(len(base))])...)
		for k := 0; k <= rng.Intn(3); k++ {
			frame[frameHeader+rng.Intn(len(frame)-frameHeader)] ^= byte(1 << uint(rng.Intn(8)))
		}
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[frameHeader:]))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on CRC-valid mutant %x: %v", frame, r)
				}
			}()
			if rec, err := Decode(frame); err == nil {
				_ = Encode(rec) // whatever decoded must re-encode cleanly
			}
		}()
	}
}

// FuzzDecode is a native fuzz target over raw frames: any frame the decoder
// accepts must re-encode to the identical bytes (the zero-copy decode and
// the single-allocation encode are exact inverses).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(ScanRec{Epoch: 2, Page: 7, Fixes: []PtrFix{{Addr: 8, NewPtr: 16}}}))
	f.Add(Encode(CopyRec{Epoch: 1, From: 8, To: 16, SizeWords: 2, Descriptor: 7,
		Contents: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}))
	f.Add(Encode(CopyRec{Epoch: 1, From: 8, To: 16, SizeWords: 2, Descriptor: 7}))
	f.Add(Encode(V2SCopyRec{From: []word.Addr{0x4000, 0x4010, 0x4020}, Runs: []MoveRun{{To: 0x820, Bytes: 16}, {To: 0x800, Bytes: 16}, {To: 0x900, Bytes: 8}},
		Object: make([]byte, 40), Fixes: []PtrFix{{Addr: 0x108, NewPtr: 0x800}, {Addr: 0x4108, NewPtr: 0x900}}}))
	f.Add(Encode(UpdateRec{TxHdr: TxHdr{TxID: 5, PrevLSN: 9}, Addr: 0x1000,
		Redo: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Undo: []byte{8, 7, 6, 5}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		frame := Encode(rec)
		if string(frame) != string(data) {
			t.Fatalf("accepted frame does not re-encode identically:\nin  %x\nout %x", data, frame)
		}
	})
}
