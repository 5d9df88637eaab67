package filestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// These tests cover what the shared conformance suite cannot: behavior
// across a real close/reopen, torn tails surviving on disk, and
// detection of at-rest corruption in the slot file. (Conformance parity
// with the in-memory devices lives in conformance_test.go.)

func openAt(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	o.NoWriteBack = true
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func page(n int, fill byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o := Options{PageSize: 512, SegmentBytes: 128, CachePages: 4}

	s := openAt(t, dir, o)
	for i := 0; i < 20; i++ { // 5x the cache: exercises eviction + fetch
		s.Disk.WritePage(word.PageID(i), page(512, byte(i+1)), word.LSN(100+i))
	}
	var lsns []word.LSN
	for i := 0; i < 10; i++ {
		lsns = append(lsns, s.Log.Append(page(30+i, byte(0xA0+i))))
	}
	s.Log.ForceAll()
	m := s.Disk.Master()
	m.Formatted = true
	m.CheckpointLSN = lsns[7]
	s.Disk.SetMaster(m)
	endLSN, truncLSN := s.Log.EndLSN(), s.Log.TruncLSN()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if !IsFormatted(dir) {
		t.Fatal("IsFormatted false after formatted close")
	}
	r := openAt(t, dir, Options{CachePages: 4}) // sizes come from disk, not Options
	defer r.Close()
	if r.Disk.PageSize() != 512 {
		t.Fatalf("reopened PageSize = %d", r.Disk.PageSize())
	}
	if r.Log.SegmentBytes() != 128 {
		t.Fatalf("reopened SegmentBytes = %d", r.Log.SegmentBytes())
	}
	for i := 0; i < 20; i++ {
		data, lsn, ok := r.Disk.ReadPage(word.PageID(i))
		if !ok || lsn != word.LSN(100+i) || !bytes.Equal(data, page(512, byte(i+1))) {
			t.Fatalf("page %d: ok=%v lsn=%d", i, ok, lsn)
		}
	}
	if rm := r.Disk.Master(); !rm.Formatted || rm.CheckpointLSN != lsns[7] {
		t.Fatalf("master lost: %+v", rm)
	}
	if r.Log.EndLSN() != endLSN || r.Log.StableLSN() != endLSN || r.Log.TruncLSN() != truncLSN {
		t.Fatalf("log LSNs: end=%d stable=%d trunc=%d, want end=stable=%d trunc=%d",
			r.Log.EndLSN(), r.Log.StableLSN(), r.Log.TruncLSN(), endLSN, truncLSN)
	}
	for i, lsn := range lsns {
		data, ok := r.Log.ReadAt(lsn)
		if !ok || !bytes.Equal(data, page(30+i, byte(0xA0+i))) {
			t.Fatalf("log record %d at %d: ok=%v", i, lsn, ok)
		}
	}
}

func TestReopenAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512, SegmentBytes: 64})
	for i := 0; i < 12; i++ {
		s.Log.Append(page(16, byte(i)))
	}
	s.Log.ForceAll()
	s.Log.Truncate(129) // segments 0 and 1 (LSNs 1..128) freed
	if got := s.Log.TruncLSN(); got != 129 {
		t.Fatalf("TruncLSN = %d", got)
	}
	s.Close()

	// Physical reclamation: the freed segment files are gone.
	for _, k := range []int64{0, 1} {
		if _, err := os.Stat(filepath.Join(dir, "log", segName(k))); !os.IsNotExist(err) {
			t.Fatalf("segment %d still on disk (err=%v)", k, err)
		}
	}
	r := openAt(t, dir, Options{})
	defer r.Close()
	if r.Log.TruncLSN() != 129 || r.Log.EndLSN() != 193 {
		t.Fatalf("reopened trunc=%d end=%d", r.Log.TruncLSN(), r.Log.EndLSN())
	}
	if _, ok := r.Log.ReadAt(65); ok {
		t.Fatal("truncated record resurrected by reopen")
	}
	if _, ok := r.Log.ReadAt(129); !ok {
		t.Fatal("retained record lost on reopen")
	}
}

// TestReopenTornTail is the file-backed half of the torn-tail contract:
// a fragment persisted by an interrupted force is redelivered on reopen
// as a payload-prefix fragment, exactly as the in-memory CrashTorn
// presents it, and RepairTail physically rewinds it away.
func TestReopenTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512, SegmentBytes: 256})
	first := s.Log.Append(page(20, 0x11))
	s.Log.ForceAll()
	frag := s.Log.Append(page(40, 0x22))
	cut := frag + 13
	s.Log.CrashTorn(cut) // persists header + 13 of 40 payload bytes
	// Abandon s without Close — the torn state is already on disk.

	r := openAt(t, dir, Options{})
	if r.Log.EndLSN() != cut || r.Log.StableLSN() != cut {
		t.Fatalf("reopened end=%d stable=%d, want %d", r.Log.EndLSN(), r.Log.StableLSN(), cut)
	}
	var got []byte
	storage.Scan(r.Log, frag, false, func(lsn word.LSN, data []byte) bool {
		if lsn == frag {
			got = append([]byte(nil), data...)
		}
		return true
	})
	if !bytes.Equal(got, page(40, 0x22)[:13]) {
		t.Fatalf("fragment bytes: len=%d", len(got))
	}
	// Recovery classifies and repairs; the rewind must survive reopen.
	r.Log.RepairTail(frag)
	relsn := r.Log.Append(page(8, 0x33))
	if relsn != frag {
		t.Fatalf("post-repair append at %d, want %d", relsn, frag)
	}
	r.Log.ForceAll()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r2 := openAt(t, dir, Options{})
	defer r2.Close()
	if r2.Log.EndLSN() != frag+8 {
		t.Fatalf("final end=%d, want %d", r2.Log.EndLSN(), frag+8)
	}
	if data, ok := r2.Log.ReadAt(frag); !ok || !bytes.Equal(data, page(8, 0x33)) {
		t.Fatal("post-repair record lost")
	}
	if data, ok := r2.Log.ReadAt(first); !ok || !bytes.Equal(data, page(20, 0x11)) {
		t.Fatal("pre-torn record lost")
	}
}

// TestCrashDropsUserSpaceTail: Crash() models process death — the
// unforced tail lives only in user space and must not be visible after
// reopening the directory.
func TestCrashDropsUserSpaceTail(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512})
	a := s.Log.Append(page(10, 1))
	s.Log.Force(a)
	s.Log.Append(page(10, 2)) // never forced
	s.Log.Crash()

	r := openAt(t, dir, Options{})
	defer r.Close()
	if r.Log.EndLSN() != a+10 {
		t.Fatalf("end=%d after crash reopen, want %d", r.Log.EndLSN(), a+10)
	}
}

// TestCrashFlushPersistsCompletedWrites: the crash model treats a
// completed WritePage as having reached the OS, so pages dirty in the
// bounded cache at Crash() must survive reopen even though nothing
// fsynced them.
func TestCrashFlushPersistsCompletedWrites(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512, CachePages: 64})
	s.Disk.WritePage(3, page(512, 0x77), 42)
	s.Log.Crash() // in-process crash: flush dirty frames, no fsync

	r := openAt(t, dir, Options{})
	defer r.Close()
	data, lsn, ok := r.Disk.ReadPage(3)
	if !ok || lsn != 42 || data[0] != 0x77 {
		t.Fatalf("dirty-at-crash page lost: ok=%v lsn=%d", ok, lsn)
	}
}

func TestCorruptSlotDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512, CachePages: 4})
	s.Disk.WritePage(2, page(512, 0x55), 9)
	s.Close()

	// Flip one payload byte of slot 2 at rest.
	f, err := os.OpenFile(filepath.Join(dir, "pages.dat"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := 2*(slotHdrSize+512) + slotHdrSize + 100
	if _, err := f.WriteAt([]byte{0xFF}, int64(off)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openAt(t, dir, Options{CachePages: 4})
	defer r.Close()
	defer func() {
		err, _ := storage.AsDeviceError(recover())
		ce, ok := err.(*storage.CorruptPageError)
		if !ok || ce.Page != 2 {
			t.Fatalf("want CorruptPageError for page 2, got %v", err)
		}
	}()
	r.Disk.ReadPage(2)
	t.Fatal("corrupt slot read did not panic")
}

func TestWriteBackDrainsDirtyFrames(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 8, WriteBackEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		s.Disk.WritePage(word.PageID(i), page(512, byte(i)), word.LSN(i+1))
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Disk.dirtyCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("write-back never drained: %d dirty", s.Disk.dirtyCount())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Disk.FileMetrics()["writebacks_total"] == 0 {
		t.Fatal("write-back counter never moved")
	}
}

// TestBarrierOrdersPagesBeforeMaster: SetMaster is the durability
// barrier — after it returns, every previously written page must be
// parseable from the file even if the process dies without Close.
func TestBarrierOrdersPagesBeforeMaster(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512, CachePages: 4})
	for i := 0; i < 10; i++ {
		s.Disk.WritePage(word.PageID(i), page(512, byte(i+1)), word.LSN(i+1))
	}
	m := s.Disk.Master()
	m.Formatted = true
	m.CheckpointLSN = 999
	s.Disk.SetMaster(m)
	// No Close: reopen must still see everything the barrier promised.
	r := openAt(t, dir, Options{})
	defer r.Close()
	if rm := r.Disk.Master(); !rm.Formatted || rm.CheckpointLSN != 999 {
		t.Fatalf("master after barrier: %+v", rm)
	}
	for i := 0; i < 10; i++ {
		if _, lsn, ok := r.Disk.ReadPage(word.PageID(i)); !ok || lsn != word.LSN(i+1) {
			t.Fatalf("page %d not durable after barrier: ok=%v lsn=%d", i, ok, lsn)
		}
	}
}

func TestPageSizeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512})
	m := s.Disk.Master()
	m.Formatted = true
	s.Disk.SetMaster(m)
	s.Close()
	if _, err := Open(dir, Options{PageSize: 1024, NoWriteBack: true}); err == nil {
		t.Fatal("page-size mismatch on reopen accepted")
	}
}

func TestCloneIsIndependentDirectory(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512, SegmentBytes: 128, CachePages: 4})
	defer s.Close()
	s.Disk.WritePage(1, page(512, 0x11), 7)
	s.Log.Append(page(16, 0x22))
	s.Log.ForceAll()

	cd := s.Disk.Clone()
	cl := s.Log.Clone()
	s.Disk.WritePage(1, page(512, 0x99), 8)
	s.Log.Append(page(16, 0x33))
	if data, lsn, _ := cd.ReadPage(1); lsn != 7 || data[0] != 0x11 {
		t.Fatalf("clone disk sees parent write: lsn=%d", lsn)
	}
	if cl.EndLSN() == s.Log.EndLSN() {
		t.Fatal("clone log sees parent append")
	}
}
