package storage

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"stableheap/internal/word"
)

const testPageSize = 256

func page(fill byte) []byte {
	b := make([]byte, testPageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk(testPageSize)
	if _, _, ok := d.ReadPage(3); ok {
		t.Fatal("unwritten page must report !ok")
	}
	d.WritePage(3, page(0xab), 42)
	got, lsn, ok := d.ReadPage(3)
	if !ok || lsn != 42 || !bytes.Equal(got, page(0xab)) {
		t.Fatalf("read back mismatch: ok=%v lsn=%d", ok, lsn)
	}
}

func TestDiskReadReturnsCopy(t *testing.T) {
	d := NewDisk(testPageSize)
	d.WritePage(1, page(1), 1)
	got, _, _ := d.ReadPage(1)
	got[0] = 99
	again, _, _ := d.ReadPage(1)
	if again[0] != 1 {
		t.Fatal("ReadPage must return a copy, not an alias")
	}
}

func TestDiskWriteStoresCopy(t *testing.T) {
	d := NewDisk(testPageSize)
	p := page(5)
	d.WritePage(1, p, 1)
	p[0] = 77
	got, _, _ := d.ReadPage(1)
	if got[0] != 5 {
		t.Fatal("WritePage must copy the caller's buffer")
	}
}

func TestDiskOverwriteAndPageLSN(t *testing.T) {
	d := NewDisk(testPageSize)
	d.WritePage(7, page(1), 10)
	d.WritePage(7, page(2), 20)
	if d.PageLSN(7) != 20 {
		t.Fatalf("PageLSN = %d, want 20", d.PageLSN(7))
	}
	if d.PageLSN(8) != word.NilLSN {
		t.Fatal("unwritten page must have NilLSN")
	}
	got, _, _ := d.ReadPage(7)
	if got[0] != 2 {
		t.Fatal("overwrite not visible")
	}
}

func TestDiskWrongSizePanics(t *testing.T) {
	d := NewDisk(testPageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-size write")
		}
	}()
	d.WritePage(1, make([]byte, 10), 1)
}

func TestDiskMaster(t *testing.T) {
	d := NewDisk(testPageSize)
	m := d.Master()
	if m.Formatted || m.CheckpointLSN != word.NilLSN {
		t.Fatal("fresh disk must be unformatted")
	}
	d.SetMaster(Master{Formatted: true, CheckpointLSN: 99, PageSize: testPageSize})
	if got := d.Master(); !got.Formatted || got.CheckpointLSN != 99 {
		t.Fatalf("master not updated: %+v", got)
	}
}

func TestDiskStats(t *testing.T) {
	d := NewDisk(testPageSize)
	d.WritePage(1, page(0), 1)
	d.ReadPage(1)
	d.ReadPage(2) // miss still counts as a read attempt
	s := d.Stats()
	if s.PageWrites != 1 || s.PageReads != 2 || s.BytesWritten != testPageSize {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLogAppendAssignsByteOffsetLSNs(t *testing.T) {
	l := NewLog(1024)
	a := l.Append([]byte("aaaa"))     // 4 bytes
	b := l.Append([]byte("bbbbbbbb")) // 8 bytes
	c := l.Append([]byte("cc"))
	if a != 1 || b != 5 || c != 13 {
		t.Fatalf("LSNs = %d %d %d, want 1 5 13", a, b, c)
	}
	if l.EndLSN() != 15 {
		t.Fatalf("EndLSN = %d, want 15", l.EndLSN())
	}
}

func TestLogCrashDropsVolatileTail(t *testing.T) {
	l := NewLog(1024)
	a := l.Append([]byte("stable"))
	l.Force(a)
	b := l.Append([]byte("volatile"))
	if b < l.StableLSN() {
		t.Fatal("unforced record must not be stable")
	}
	l.Crash()
	if _, ok := l.ReadAt(b); ok {
		t.Fatal("crash must discard the volatile tail")
	}
	if got, ok := l.ReadAt(a); !ok || string(got) != "stable" {
		t.Fatal("crash must preserve the stable prefix")
	}
	if l.EndLSN() != l.StableLSN() {
		t.Fatal("after crash the log ends at the stable LSN")
	}
}

func TestLogForceIdempotentOnStable(t *testing.T) {
	l := NewLog(1024)
	a := l.Append([]byte("x"))
	l.Force(a)
	forces := l.Stats().Forces
	l.Force(a) // already stable: must not count a synchronous write
	if l.Stats().Forces != forces {
		t.Fatal("forcing an already-stable LSN must be free")
	}
}

func TestLogForceCoversWholeTail(t *testing.T) {
	l := NewLog(1024)
	a := l.Append([]byte("one"))
	b := l.Append([]byte("two"))
	l.Force(b)
	if a >= l.StableLSN() || b >= l.StableLSN() {
		t.Fatal("a force writes the whole tail through its LSN (group commit)")
	}
	if l.Stats().Forces != 1 {
		t.Fatal("one force expected")
	}
	c := l.Append([]byte("three"))
	d := l.Append([]byte("four"))
	if l.Force(c); l.StableLSN() != d {
		t.Fatalf("stable=%d after a force through %d, want %d: the LSN bounds the batch", l.StableLSN(), c, d)
	}
}

func TestLogReadAtExactBoundariesOnly(t *testing.T) {
	l := NewLog(1024)
	l.Append([]byte("abcd"))
	if _, ok := l.ReadAt(2); ok {
		t.Fatal("ReadAt mid-record must fail")
	}
	if got, ok := l.ReadAt(1); !ok || string(got) != "abcd" {
		t.Fatal("ReadAt record start must succeed")
	}
}

func TestLogScanOrderAndStop(t *testing.T) {
	l := NewLog(1024)
	var lsns []word.LSN
	for i := 0; i < 5; i++ {
		lsns = append(lsns, l.Append([]byte{byte('a' + i)}))
	}
	var seen []byte
	Scan(l, lsns[1], false, func(lsn word.LSN, data []byte) bool {
		seen = append(seen, data[0])
		return data[0] != 'd'
	})
	if string(seen) != "bcd" {
		t.Fatalf("scan saw %q, want \"bcd\"", seen)
	}
}

func TestLogScanStableOnly(t *testing.T) {
	l := NewLog(1024)
	a := l.Append([]byte("s"))
	l.Force(a)
	l.Append([]byte("v"))
	var seen []byte
	Scan(l, 1, true, func(_ word.LSN, data []byte) bool {
		seen = append(seen, data[0])
		return true
	})
	if string(seen) != "s" {
		t.Fatalf("stable-only scan saw %q", seen)
	}
}

func TestLogTruncateSegmentGranularity(t *testing.T) {
	l := NewLog(16) // tiny segments
	var lsns []word.LSN
	for i := 0; i < 8; i++ {
		lsns = append(lsns, l.Append([]byte("12345678"))) // 8 bytes each
	}
	ForceAll(l)
	// Ask to keep from record 4 (LSN 25): segment boundary below is 17.
	l.Truncate(lsns[3])
	if l.TruncLSN() != 17 {
		t.Fatalf("TruncLSN = %d, want 17", l.TruncLSN())
	}
	if _, ok := l.ReadAt(lsns[0]); ok {
		t.Fatal("records in freed segments must be gone")
	}
	if _, ok := l.ReadAt(lsns[2]); !ok {
		t.Fatal("records in the kept segment must remain")
	}
	if _, ok := l.ReadAt(lsns[3]); !ok {
		t.Fatal("records at/after the keep point must remain")
	}
}

func TestLogTruncateBeyondStablePanics(t *testing.T) {
	l := NewLog(16)
	lsn := l.Append([]byte("unforced"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic truncating past stable LSN")
		}
	}()
	l.Truncate(lsn + 1)
}

func TestLogLSNsMonotoneAcrossTruncation(t *testing.T) {
	l := NewLog(8)
	a := l.Append([]byte("aaaaaaaa"))
	ForceAll(l)
	l.Truncate(l.StableLSN())
	b := l.Append([]byte("b"))
	if b <= a {
		t.Fatal("LSNs must keep growing across truncation")
	}
}

func TestLogRetainedBytes(t *testing.T) {
	l := NewLog(4)
	l.Append([]byte("aaaa"))
	l.Append([]byte("bb"))
	if l.RetainedBytes() != 6 {
		t.Fatalf("RetainedBytes = %d, want 6", l.RetainedBytes())
	}
	ForceAll(l)
	l.Truncate(5)
	if l.RetainedBytes() != 2 {
		t.Fatalf("after truncation RetainedBytes = %d, want 2", l.RetainedBytes())
	}
}

// Property: for any sequence of appends, scanning from LSN 1 returns the
// appended payloads in order, and ReadAt(lsn) returns each payload.
func TestLogAppendScanProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		l := NewLog(64)
		var want [][]byte
		var lsns []word.LSN
		for _, p := range payloads {
			if len(p) == 0 {
				continue
			}
			lsns = append(lsns, l.Append(p))
			want = append(want, p)
		}
		i := 0
		ok := true
		Scan(l, 1, false, func(lsn word.LSN, data []byte) bool {
			if i >= len(want) || !bytes.Equal(data, want[i]) || lsn != lsns[i] {
				ok = false
				return false
			}
			i++
			return true
		})
		if !ok || i != len(want) {
			return false
		}
		for j, lsn := range lsns {
			got, ok2 := l.ReadAt(lsn)
			if !ok2 || !bytes.Equal(got, want[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: crash preserves exactly the forced prefix, for random
// force positions.
func TestLogCrashPreservesForcedPrefixProperty(t *testing.T) {
	f := func(n uint8, forceAt uint8) bool {
		count := int(n%20) + 1
		fi := int(forceAt) % count
		l := NewLog(64)
		var lsns []word.LSN
		for i := 0; i < count; i++ {
			lsns = append(lsns, l.Append([]byte{byte(i), byte(i)}))
		}
		l.Force(lsns[fi])
		l.Crash()
		for i, lsn := range lsns {
			// A force covers the tail through its LSN and no further.
			if _, ok := l.ReadAt(lsn); ok != (i <= fi) {
				return false
			}
		}
		post := l.Append([]byte("post"))
		got, ok := l.ReadAt(post)
		return ok && string(got) == "post"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogScanBatches(t *testing.T) {
	l := NewLog(1024)
	var lsns []word.LSN
	for i := 0; i < 7; i++ {
		lsns = append(lsns, l.Append([]byte{byte('a' + i)}))
	}
	var sizes []int
	var seen []byte
	var seenLSNs []word.LSN
	l.ScanBatches(0, false, 3, func(ls []word.LSN, frames [][]byte) bool {
		sizes = append(sizes, len(ls))
		for i := range ls {
			seenLSNs = append(seenLSNs, ls[i])
			seen = append(seen, frames[i][0])
		}
		return true
	})
	if want := []int{3, 3, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch sizes = %v, want %v", sizes, want)
	}
	if string(seen) != "abcdefg" {
		t.Fatalf("batched scan saw %q, want \"abcdefg\"", seen)
	}
	if !reflect.DeepEqual(seenLSNs, lsns) {
		t.Fatalf("batched scan LSNs = %v, want %v", seenLSNs, lsns)
	}
}

func TestLogScanBatchesFromAndStop(t *testing.T) {
	l := NewLog(1024)
	var lsns []word.LSN
	for i := 0; i < 6; i++ {
		lsns = append(lsns, l.Append([]byte{byte('a' + i)}))
	}
	var seen []byte
	l.ScanBatches(lsns[1], false, 2, func(ls []word.LSN, frames [][]byte) bool {
		for _, f := range frames {
			seen = append(seen, f[0])
		}
		return false // stop after the first batch
	})
	if string(seen) != "bc" {
		t.Fatalf("scan saw %q, want \"bc\"", seen)
	}
}

func TestLogScanBatchesStableOnly(t *testing.T) {
	l := NewLog(1024)
	a := l.Append([]byte("s"))
	b := l.Append([]byte("t"))
	l.Force(b)
	l.Append([]byte("v")) // volatile tail: must not be delivered
	var seen []byte
	l.ScanBatches(a, true, 0, func(_ []word.LSN, frames [][]byte) bool {
		for _, f := range frames {
			seen = append(seen, f[0])
		}
		return true
	})
	if string(seen) != "st" {
		t.Fatalf("stable-only batched scan saw %q, want \"st\"", seen)
	}
}
