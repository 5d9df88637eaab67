package filestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// These tests cover what the shared conformance suite cannot: the file
// layout itself, fdatasync counts, and at-rest corruption written into the
// slot file behind the store's back. (The suite, restarts included, runs
// over this backing in conformance_test.go.)

func openAt(t *testing.T, dir string, o Options) *Store {
	t.Helper()
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
	const slotHdrSize = 32
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
	if _, err := Open(dir, Options{PageSize: 1024}); err == nil {
		t.Fatal("page-size mismatch on reopen accepted")
	}
}

// TestCloneIsIndependentDirectory: a clone of a store's backings is a
// fresh directory under each backing's clones/, whose devices see neither
// side's later writes, and the parent reopens past the clones left in it.
func TestCloneIsIndependentDirectory(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{PageSize: 512, SegmentBytes: 128})
	s.Disk.WritePage(1, page(512, 0x11), 7)
	s.Log.Append(page(16, 0x22))
	storage.ForceAll(s.Log)

	var clones [2]storage.Backing
	for i, d := range []string{dir, filepath.Join(dir, "log")} {
		b, err := NewBacking(d)
		if err != nil {
			t.Fatal(err)
		}
		if clones[i], err = b.Clone(); err != nil {
			t.Fatalf("Clone: %v", err)
		}
		if cdir := clones[i].(*backing).dir; filepath.Dir(cdir) != filepath.Join(d, "clones") {
			t.Fatalf("clone of %s made at %s", d, cdir)
		}
	}
	cd, err := storage.OpenDisk(clones[0], 0)
	if err != nil {
		t.Fatalf("OpenDisk over the clone: %v", err)
	}
	defer cd.Close()
	cl, err := storage.OpenLog(clones[1], 0)
	if err != nil {
		t.Fatalf("OpenLog over the clone: %v", err)
	}
	defer cl.Close()

	s.Disk.WritePage(1, page(512, 0x99), 8)
	s.Log.Append(page(16, 0x33))
	storage.ForceAll(s.Log)
	if data, lsn, _ := cd.ReadPage(1); lsn != 7 || data[0] != 0x11 {
		t.Fatalf("clone disk sees parent write: lsn=%d", lsn)
	}
	if cl.EndLSN() == s.Log.EndLSN() {
		t.Fatal("clone log sees parent append")
	}
	cd.WritePage(2, page(512, 0x55), 9)
	cl.Append(page(24, 0x44))
	storage.ForceAll(cl)
	end := s.Log.EndLSN()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openAt(t, dir, Options{})
	defer s.Close()
	if data, lsn, _ := s.Disk.ReadPage(1); lsn != 8 || data[0] != 0x99 {
		t.Fatalf("reopened parent page 1: lsn=%d", lsn)
	}
	if _, _, ok := s.Disk.ReadPage(2); ok || s.Log.EndLSN() != end {
		t.Fatalf("clone writes reached the reopened parent: page 2 %v, log end %d, want %d", ok, s.Log.EndLSN(), end)
	}
}

// logFsyncs reads the log-force fdatasync counter.
func logFsyncs(s *Store) int64 { return s.Log.Stats().Syncs }

func segName(first word.LSN) string { return fmt.Sprintf("seg-%016x.seg", uint64(first)) }

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "log", "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	return names
}

// TestForceIsOneFdatasync: a force writes its whole batch into the active
// segment file — one fdatasync whatever the batch size, many segment
// sizes or a fraction of one — and the file rolls only between forces,
// taking the next batch's first LSN as its name.
func TestForceIsOneFdatasync(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{SegmentBytes: 256})
	defer s.Close()
	var firsts []word.LSN // first LSN of each batch that must open a new file
	roll := true
	for _, batch := range []int{1, 3, 40, 2, 200, 1, 1} { // records of 50 bytes
		first := s.Log.EndLSN()
		if roll {
			firsts = append(firsts, first)
		}
		for i := 0; i < batch; i++ {
			s.Log.Append(page(50, byte(batch)))
		}
		before := logFsyncs(s)
		s.Log.Force(s.Log.EndLSN() - 1)
		if got := logFsyncs(s) - before; got != 1 {
			t.Fatalf("force of %d records cost %d fdatasyncs, want 1", batch, got)
		}
		if s.Log.StableLSN() != s.Log.EndLSN() {
			t.Fatalf("force left stable=%d end=%d", s.Log.StableLSN(), s.Log.EndLSN())
		}
		// The active file takes batches until it holds segSize bytes.
		files := segFiles(t, dir)
		fi, err := os.Stat(filepath.Join(dir, "log", files[len(files)-1]))
		if err != nil {
			t.Fatal(err)
		}
		roll = fi.Size() >= 256
	}
	var want []string
	for _, first := range firsts {
		want = append(want, segName(first))
	}
	if got := segFiles(t, dir); len(got) != len(want) {
		t.Fatalf("segment files %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segment files %v, want %v", got, want)
			}
		}
	}
	// Truncation stays logical and segSize-aligned, like the in-memory
	// device's; only files wholly below it go.
	end := s.Log.EndLSN()
	s.Log.Truncate(end)
	if want := (end-1)/256*256 + 1; s.Log.TruncLSN() != want {
		t.Fatalf("TruncLSN = %d, want %d", s.Log.TruncLSN(), want)
	}
	for len(firsts) > 1 && firsts[1] <= s.Log.TruncLSN() {
		firsts, want = firsts[1:], want[1:]
	}
	if got := segFiles(t, dir); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("after truncating to the end: files %v, want %v", got, want)
	}
}

// TestForceHoldsNoLockAppendNeeds: with a force held inside its fdatasync,
// Append, ReadAt (of a stable record, of one in the batch in flight, of a
// fresh one), the scans and the LSN getters all return — none of them can
// block behind the force's I/O — and what was appended meanwhile is still
// volatile when the force ends.
func TestForceHoldsNoLockAppendNeeds(t *testing.T) {
	lb, err := NewBacking(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedBacking{Backing: lb}
	l, err := storage.OpenLog(gate, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	old := l.Append(page(30, 1))
	l.Force(old)

	entered, release := make(chan struct{}), make(chan struct{})
	gate.hold = func() {
		close(entered)
		<-release
	}
	flying := l.Append(page(30, 2))
	forced := make(chan struct{})
	go func() {
		defer close(forced)
		l.Force(flying)
	}()
	<-entered

	done := make(chan string, 1)
	go func() {
		fresh := l.Append(page(30, 3))
		for lsn, fill := range map[word.LSN]byte{old: 1, flying: 2, fresh: 3} {
			if data, ok := l.ReadAt(lsn); !ok || !bytes.Equal(data, page(30, fill)) {
				done <- "record unreadable during the force"
				return
			}
		}
		n := 0
		storage.Scan(l, 1, false, func(word.LSN, []byte) bool { n++; return true })
		switch {
		case n != 3:
			done <- "scan during the force missed records"
		case l.StableLSN() != flying:
			done <- "stable LSN moved before the fdatasync returned"
		case l.EndLSN() != fresh+30 || l.TruncLSN() != 1 || l.RetainedBytes() != 90:
			done <- "getters disagree with the appends"
		default:
			done <- ""
		}
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an append, read or getter blocked behind the force's fdatasync")
	}
	close(release)
	<-forced
	gate.hold = nil
	if got := l.StableLSN(); got != flying+30 {
		t.Fatalf("stable = %d after the force, want %d: it must cover its batch and nothing appended later", got, flying+30)
	}
}

// TestIndexNamedLayoutRejected: a log directory written before segment
// files were named by first LSN is refused with an error that says so.
func TestIndexNamedLayoutRejected(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, Options{})
	s.Close()
	meta := filepath.Join(dir, "log", "log.meta")
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[0:], 0x53484C4D) // "SHLM": the index-named layout
	if err := os.WriteFile(meta, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "earlier build") {
		t.Fatalf("Open of an index-named layout: %v, want a refusal naming the layout", err)
	}
}

// gatedBacking runs hold, when set, inside every file Sync.
type gatedBacking struct {
	storage.Backing
	hold func()
}

func (g *gatedBacking) Open(name string, truncate bool) (storage.File, error) {
	f, err := g.Backing.Open(name, truncate)
	return gatedFile{f, g}, err
}

type gatedFile struct {
	storage.File
	g *gatedBacking
}

func (f gatedFile) Sync() error {
	if f.g.hold != nil {
		f.g.hold()
	}
	return f.File.Sync()
}
