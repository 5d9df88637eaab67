// Package storagetest is the shared conformance suite for the one Disk and
// the one Log. It is table-driven so that every backing — memory, files,
// and a memory backing under an unarmed faultfs injector — proves the same
// observable behavior: Master round-trips, the ownership and concurrency
// rules, ReadAt/Scan/ScanBatches equivalence, Truncate boundary math,
// Crash/CrashTorn end states, and (RunReopen) what a reopen of the same
// backing parses back — the torn-tail cut included, which CrashTorn
// reproduces in process.
//
// The log suite is anchored by a seeded random-op equivalence driver that
// applies the identical operation sequence to the device under test and
// to refLog, a minimal entry-slice model of the log's semantics kept here,
// comparing the full observable state after every step.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"stableheap/internal/storage"
	"stableheap/internal/word"
)

// DiskMaker builds a fresh empty page store with the given page size, and
// returns the backing it lives in.
type DiskMaker func(t *testing.T, pageSize int) (*storage.Disk, storage.Backing)

// LogMaker builds a fresh empty log with the given segment size in bytes,
// and returns the backing it lives in.
type LogMaker func(t *testing.T, segBytes int) (*storage.Log, storage.Backing)

// RunDisk runs the page store conformance suite.
func RunDisk(t *testing.T, mk DiskMaker) {
	const pageSize = 256

	page := func(fill byte) []byte {
		p := make([]byte, pageSize)
		for i := range p {
			p[i] = fill
		}
		return p
	}

	t.Run("ReadWriteRoundTrip", func(t *testing.T) {
		d, _ := mk(t, pageSize)
		if ps := d.PageSize(); ps != pageSize {
			t.Fatalf("PageSize = %d, want %d", ps, pageSize)
		}
		if _, _, ok := d.ReadPage(3); ok {
			t.Fatal("ReadPage of never-written page reported ok")
		}
		if d.PageLSN(3) != word.NilLSN {
			t.Fatal("never-written page has an LSN")
		}
		d.WritePage(3, page(0xAB), 77)
		data, lsn, ok := d.ReadPage(3)
		if !ok || lsn != 77 || !bytes.Equal(data, page(0xAB)) {
			t.Fatalf("round trip failed: ok=%v lsn=%d", ok, lsn)
		}
		if d.PageLSN(3) != 77 {
			t.Fatal("PageLSN disagrees with the write")
		}
		// Overwrite moves the LSN.
		d.WritePage(3, page(0xCD), 90)
		data, lsn, _ = d.ReadPage(3)
		if lsn != 90 || data[0] != 0xCD {
			t.Fatalf("overwrite not visible: lsn=%d data[0]=%x", lsn, data[0])
		}
	})

	t.Run("CopyIsolation", func(t *testing.T) {
		d, _ := mk(t, pageSize)
		in := page(0x11)
		d.WritePage(1, in, 5)
		in[0] = 0xFF // caller buffer mutation must not leak in
		got, _, _ := d.ReadPage(1)
		if got[0] != 0x11 {
			t.Fatal("store aliased the caller's write buffer")
		}
		got[1] = 0xEE // returned buffer mutation must not leak back
		again, _, _ := d.ReadPage(1)
		if again[1] != 0x11 {
			t.Fatal("store aliased the returned read buffer")
		}
	})

	// The Disk's ownership rule, as vm uses it: a read buffer is kept as
	// the resident page and written in place, and one write buffer is
	// rewritten between WritePage calls. Neither may reach the store's
	// state, and later traffic may not reach a kept read buffer.
	t.Run("Ownership", func(t *testing.T) {
		d, _ := mk(t, pageSize)
		buf := page(0x11)
		d.WritePage(1, buf, 5)
		copy(buf, page(0x22)) // the caller reuses its write buffer
		d.WritePage(2, buf, 6)
		copy(buf, page(0x33))
		kept, _, _ := d.ReadPage(1)
		kept2, _, _ := d.ReadPage(2)
		copy(kept2, page(0x44)) // a kept read buffer, written in place
		d.WritePage(1, page(0x55), 7)
		d.ReadPage(1)
		d.ReadPage(2)
		if !bytes.Equal(kept, page(0x11)) {
			t.Fatal("later traffic changed a read buffer the caller kept")
		}
		for id, want := range map[word.PageID]byte{1: 0x55, 2: 0x22} {
			if got, _, _ := d.ReadPage(id); !bytes.Equal(got, page(want)) {
				t.Fatalf("page %d does not read back its last write: a caller's buffer reached the store", id)
			}
		}
	})

	t.Run("MasterRoundTrip", func(t *testing.T) {
		d, _ := mk(t, pageSize)
		m := d.Master()
		if m.Formatted {
			t.Fatal("fresh store claims to be formatted")
		}
		if m.PageSize != pageSize {
			t.Fatalf("fresh master PageSize = %d, want %d", m.PageSize, pageSize)
		}
		m.Formatted = true
		m.CheckpointLSN = 12345
		d.SetMaster(m)
		got := d.Master()
		if !got.Formatted || got.CheckpointLSN != 12345 || got.PageSize != pageSize {
			t.Fatalf("master round trip lost fields: %+v", got)
		}
	})

	t.Run("WrongLengthPanics", func(t *testing.T) {
		d, _ := mk(t, pageSize)
		defer func() {
			if recover() == nil {
				t.Fatal("WritePage with a short buffer did not panic")
			}
		}()
		d.WritePage(0, make([]byte, pageSize-1), 1)
	})

	t.Run("StatsCount", func(t *testing.T) {
		d, _ := mk(t, pageSize)
		s0 := d.Stats()
		d.WritePage(0, page(1), 1)
		d.WritePage(1, page(2), 2)
		d.ReadPage(0)
		d.ReadPage(9) // miss still counts a read op
		s := d.Stats()
		if s.PageWrites-s0.PageWrites != 2 || s.BytesWritten-s0.BytesWritten != 2*pageSize {
			t.Fatalf("write stats %+v after %+v", s, s0)
		}
		if s.PageReads-s0.PageReads != 2 || s.BytesRead-s0.BytesRead != pageSize {
			t.Fatalf("read stats %+v after %+v (miss must count the op, not the bytes)", s, s0)
		}
	})

	// A clone of the backing opens as a second page store: it holds the
	// pages and master at the fork, and neither side's writes reach the
	// other.
	t.Run("CloneIndependence", func(t *testing.T) {
		d, b := mk(t, pageSize)
		d.WritePage(2, page(0x22), 10)
		m := d.Master()
		m.Formatted = true
		m.CheckpointLSN = 7
		d.SetMaster(m)
		cb, err := b.Clone()
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		c, err := storage.OpenDisk(cb, 0)
		if err != nil {
			t.Fatalf("OpenDisk over the clone: %v", err)
		}
		defer c.Close()
		data, lsn, ok := c.ReadPage(2)
		if !ok || lsn != 10 || data[0] != 0x22 {
			t.Fatalf("clone missing page: ok=%v lsn=%d", ok, lsn)
		}
		if cm := c.Master(); !cm.Formatted || cm.CheckpointLSN != 7 || c.PageSize() != pageSize {
			t.Fatalf("clone master %+v, page size %d", cm, c.PageSize())
		}
		d.WritePage(2, page(0x33), 11)
		if got, _, _ := c.ReadPage(2); got[0] != 0x22 {
			t.Fatal("parent write leaked into the clone")
		}
		c.WritePage(5, page(0x55), 12)
		if _, _, ok := d.ReadPage(5); ok {
			t.Fatal("clone write leaked into the parent")
		}
	})
}

// RunLog runs the log conformance suite.
func RunLog(t *testing.T, mk LogMaker) {
	rec := func(n int, fill byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = fill
		}
		return b
	}

	t.Run("AppendAdvancesByLen", func(t *testing.T) {
		l, _ := mk(t, 64)
		if l.EndLSN() != 1 || l.StableLSN() != 1 || l.TruncLSN() != 1 {
			t.Fatalf("fresh log LSNs: end=%d stable=%d trunc=%d", l.EndLSN(), l.StableLSN(), l.TruncLSN())
		}
		if got := l.Append(rec(10, 1)); got != 1 {
			t.Fatalf("first LSN = %d, want 1", got)
		}
		if got := l.Append(rec(5, 2)); got != 11 {
			t.Fatalf("second LSN = %d, want 11 (must advance by exactly len)", got)
		}
		if l.EndLSN() != 16 {
			t.Fatalf("EndLSN = %d, want 16", l.EndLSN())
		}
	})

	t.Run("SegmentBytes", func(t *testing.T) {
		l, _ := mk(t, 128)
		if l.SegmentBytes() != 128 {
			t.Fatalf("SegmentBytes = %d, want 128", l.SegmentBytes())
		}
	})

	t.Run("EmptyAppendPanics", func(t *testing.T) {
		l, _ := mk(t, 64)
		defer func() {
			if recover() == nil {
				t.Fatal("empty Append did not panic")
			}
		}()
		l.Append(nil)
	})

	t.Run("ForceAndStability", func(t *testing.T) {
		l, _ := mk(t, 64)
		a := l.Append(rec(8, 1))
		b := l.Append(rec(8, 2))
		if a < l.StableLSN() || b < l.StableLSN() {
			t.Fatal("unforced records claim stability")
		}
		c := l.Append(rec(8, 3))
		if l.Force(b); l.StableLSN() != c { // a rides along, c stays volatile
			t.Fatalf("stable=%d after a force through %d, want %d: the LSN bounds the batch", l.StableLSN(), b, c)
		}
		if l.Force(l.EndLSN() - 1); l.StableLSN() != l.EndLSN() {
			t.Fatalf("stable=%d end=%d after full force", l.StableLSN(), l.EndLSN())
		}
		forces := l.Stats().Forces
		l.Force(a) // already stable: no-op
		if l.Stats().Forces != forces {
			t.Fatal("forcing an already-stable LSN counted as a force")
		}
	})

	t.Run("CrashDropsVolatileTail", func(t *testing.T) {
		l, _ := mk(t, 64)
		l.Append(rec(8, 1))
		l.Force(1)
		c := l.Append(rec(8, 2))
		l.Crash()
		if l.EndLSN() != c {
			t.Fatalf("EndLSN = %d after crash, want %d", l.EndLSN(), c)
		}
		if _, ok := l.ReadAt(c); ok {
			t.Fatal("crashed-away record still readable")
		}
		if _, ok := l.ReadAt(1); !ok {
			t.Fatal("stable record lost at crash")
		}
	})

	t.Run("ReadAtExactStartOnly", func(t *testing.T) {
		l, _ := mk(t, 64)
		l.Append(rec(10, 1))
		second := l.Append(rec(10, 2))
		storage.ForceAll(l)
		if _, ok := l.ReadAt(second); !ok {
			t.Fatal("record start not readable")
		}
		if _, ok := l.ReadAt(second + 1); ok {
			t.Fatal("mid-record LSN readable")
		}
		got, _ := l.ReadAt(1)
		if !bytes.Equal(got, rec(10, 1)) {
			t.Fatal("ReadAt returned wrong bytes")
		}
	})

	t.Run("ScanStableOnlyStopsAtTail", func(t *testing.T) {
		l, _ := mk(t, 64)
		l.Append(rec(6, 1))
		l.Append(rec(6, 2))
		storage.ForceAll(l)
		l.Append(rec(6, 3)) // volatile
		var all, stable []word.LSN
		storage.Scan(l, 1, false, func(lsn word.LSN, data []byte) bool {
			all = append(all, lsn)
			return true
		})
		storage.Scan(l, 1, true, func(lsn word.LSN, data []byte) bool {
			stable = append(stable, lsn)
			return true
		})
		if len(all) != 3 || len(stable) != 2 {
			t.Fatalf("scan lengths: all=%v stable=%v", all, stable)
		}
	})

	t.Run("ScanBatchesMatchesScan", func(t *testing.T) {
		l, _ := mk(t, 64)
		r := rand.New(rand.NewSource(42))
		for i := 0; i < 40; i++ {
			l.Append(rec(1+r.Intn(30), byte(i)))
			if r.Intn(4) == 0 {
				storage.ForceAll(l)
			}
		}
		for _, batch := range []int{1, 3, 64} {
			var a, b []string
			storage.Scan(l, 1, false, func(lsn word.LSN, data []byte) bool {
				a = append(a, fmt.Sprintf("%d:%x", lsn, data))
				return true
			})
			l.ScanBatches(1, false, batch, func(lsns []word.LSN, frames [][]byte) bool {
				for i := range lsns {
					b = append(b, fmt.Sprintf("%d:%x", lsns[i], frames[i]))
				}
				return true
			})
			if len(a) != len(b) {
				t.Fatalf("batch=%d: %d vs %d records", batch, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("batch=%d record %d: %s vs %s", batch, i, a[i], b[i])
				}
			}
		}
	})

	// The Log's ownership rule: it never overwrites or recycles
	// delivered bytes. Every delivered frame is retained (the slice as
	// handed over, no copy) and compared against ReadAt only after the scan
	// ends. Equal-sized records in one segment give every batch the same
	// span — the case in which a recycled read buffer is reused in place.
	t.Run("ScanRetainsDeliveredBytes", func(t *testing.T) {
		l, _ := mk(t, 4096)
		for i := 0; i < 48; i++ {
			l.Append(rec(24, byte(i+1)))
		}
		storage.ForceAll(l)
		for i := 0; i < 6; i++ {
			l.Append(rec(24, byte(0x80+i))) // volatile tail
		}
		var lsns []word.LSN
		var kept [][]byte
		keep := func(lsn word.LSN, data []byte) bool {
			lsns, kept = append(lsns, lsn), append(kept, data)
			return true
		}
		check := func(name string) {
			t.Helper()
			if len(kept) != 54 {
				t.Fatalf("%s delivered %d records, want 54", name, len(kept))
			}
			for i, data := range kept {
				if want, _ := l.ReadAt(lsns[i]); !bytes.Equal(data, want) {
					// Errorf: report each scan flavour that breaks the rule.
					t.Errorf("%s: frame at lsn %d changed after its callback returned: retained %x, device has %x",
						name, lsns[i], data, want)
					break
				}
			}
			lsns, kept = nil, nil
		}
		storage.Scan(l, 1, false, keep)
		check("Scan")
		for _, batch := range []int{1, 4, 64} {
			l.ScanBatches(1, false, batch, func(ls []word.LSN, frames [][]byte) bool {
				for i := range ls {
					keep(ls[i], frames[i])
				}
				return true
			})
			check(fmt.Sprintf("ScanBatches(%d)", batch))
		}
	})

	t.Run("TruncateBoundaries", func(t *testing.T) {
		const seg = 64
		l, _ := mk(t, seg)
		// Three segments of 4×16-byte records each.
		for i := 0; i < 12; i++ {
			l.Append(rec(16, byte(i)))
		}
		storage.ForceAll(l)
		// keep mid-segment-1: only segment 0 (LSNs 1..64) can go.
		l.Truncate(word.LSN(seg) + 17)
		if l.TruncLSN() != word.LSN(seg)+1 {
			t.Fatalf("TruncLSN = %d, want %d", l.TruncLSN(), seg+1)
		}
		if _, ok := l.ReadAt(1); ok {
			t.Fatal("truncated record readable")
		}
		if _, ok := l.ReadAt(word.LSN(seg) + 1); !ok {
			t.Fatal("record above the boundary lost")
		}
		// No-op truncate below the current point.
		truncs := l.Stats().Truncations
		l.Truncate(word.LSN(seg) + 1)
		if l.Stats().Truncations != truncs {
			t.Fatal("no-op truncate counted")
		}
		// Truncating beyond the stable LSN must panic.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("truncate beyond stable did not panic")
				}
			}()
			l.Truncate(l.EndLSN() + 100)
		}()
	})

	t.Run("StraddlerRetention", func(t *testing.T) {
		const seg = 64
		l, _ := mk(t, seg)
		l.Append(rec(60, 1))
		straddler := l.Append(rec(20, 2)) // LSN 61, ends at 81: straddles seg 1 boundary (65)
		after := l.Append(rec(10, 3))     // LSN 81
		storage.ForceAll(l)
		l.Truncate(after)
		// Boundary rounds down to 65; the straddler (61..80) is retained.
		if l.TruncLSN() != seg+1 {
			t.Fatalf("TruncLSN = %d, want %d", l.TruncLSN(), seg+1)
		}
		if _, ok := l.ReadAt(straddler); !ok {
			t.Fatal("straddler dropped")
		}
		if _, ok := l.ReadAt(1); ok {
			t.Fatal("fully-below-boundary record retained")
		}
	})

	// A torn crash repairs the log's tail by rewinding it to the torn
	// record: the next append reuses that LSN and reads back its own bytes.
	t.Run("RepairTailRewinds", func(t *testing.T) {
		l, _ := mk(t, 64)
		l.Append(rec(8, 1))
		storage.ForceAll(l)
		torn := l.Append(rec(8, 2))
		l.CrashTorn(torn + 5)
		if got := l.Append(rec(4, 9)); got != torn {
			t.Fatalf("append after the torn crash got LSN %d, want %d", got, torn)
		}
		storage.ForceAll(l)
		if data, ok := l.ReadAt(torn); !ok || !bytes.Equal(data, rec(4, 9)) {
			t.Fatal("reused LSN does not read back the new record")
		}
		if l.EndLSN() != torn+4 || l.RetainedBytes() != 12 {
			t.Fatalf("end=%d retained=%d, want %d and 12: the torn record's bytes linger", l.EndLSN(), l.RetainedBytes(), torn+4)
		}
	})

	// A crash that tears a record mid-way leaves no fragment behind: the
	// log ends where the torn record began, nothing at or past it reads
	// back, and the whole records before it are intact.
	t.Run("CrashTornFragment", func(t *testing.T) {
		l, _ := mk(t, 64)
		l.Append(rec(8, 1))
		storage.ForceAll(l)
		frag := l.Append(rec(16, 2))
		l.Append(rec(8, 3))
		l.CrashTorn(frag + 10) // mid-record: 10 of 16 bytes land
		if l.EndLSN() != frag || l.StableLSN() != frag {
			t.Fatalf("after torn crash: end=%d stable=%d, want %d", l.EndLSN(), l.StableLSN(), frag)
		}
		if _, ok := l.ReadAt(frag); ok {
			t.Fatal("the torn record reads back")
		}
		var lsns []word.LSN
		storage.Scan(l, 1, false, func(lsn word.LSN, data []byte) bool {
			lsns = append(lsns, lsn)
			return true
		})
		if len(lsns) != 1 || lsns[0] != 1 || l.RetainedBytes() != 8 {
			t.Fatalf("scan after torn crash = %v, retained %d; want only the record at 1", lsns, l.RetainedBytes())
		}
	})

	// A clone of the backing opens as a second log holding the records
	// forced before the fork; neither side's later records reach the
	// other's bytes.
	t.Run("CloneIndependence", func(t *testing.T) {
		l, b := mk(t, 64)
		first := l.Append(rec(8, 1))
		storage.ForceAll(l)
		cb, err := b.Clone()
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		c, err := storage.OpenLog(cb, 0)
		if err != nil {
			t.Fatalf("OpenLog over the clone: %v", err)
		}
		if c.EndLSN() != l.EndLSN() || c.StableLSN() != l.StableLSN() || c.SegmentBytes() != 64 {
			t.Fatalf("clone LSNs differ: end %d/%d stable %d/%d, segment %d",
				c.EndLSN(), l.EndLSN(), c.StableLSN(), l.StableLSN(), c.SegmentBytes())
		}
		if data, ok := c.ReadAt(first); !ok || !bytes.Equal(data, rec(8, 1)) {
			t.Fatal("clone lost the forced record")
		}
		next := c.Append(rec(24, 3))
		storage.ForceAll(c)
		if l.EndLSN() != next {
			t.Fatal("clone append leaked into the parent")
		}
		l.Append(rec(8, 2)) // at next too, in the parent's own bytes
		storage.ForceAll(l)
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		c, err = storage.OpenLog(cb, 0)
		if err != nil {
			t.Fatalf("reopen the clone: %v", err)
		}
		defer c.Close()
		if data, ok := c.ReadAt(next); !ok || !bytes.Equal(data, rec(24, 3)) || c.EndLSN() != next+24 {
			t.Fatalf("parent append leaked into the clone: ok=%v, %d bytes at %d, end %d", ok, len(data), next, c.EndLSN())
		}
	})

	// The Log's concurrency contract: appenders, a reader and a forcer run
	// at once (under -race in CI). Every force covers what was appended
	// before it; a record appended meanwhile is covered or still volatile,
	// never lost; every record stays readable throughout, the batch in
	// flight included; LSNs tile; and every force pays one segment sync
	// whatever the batch size.
	t.Run("AppendsDuringForce", func(t *testing.T) {
		l, _ := mk(t, 256)
		type entry struct {
			lsn  word.LSN
			data []byte
		}
		var mu sync.Mutex
		var all []entry
		syncs0 := l.Stats().Syncs
		stop := make(chan struct{})
		var bg, appenders sync.WaitGroup
		background := func(step func(i int) bool) {
			bg.Add(1)
			go func() {
				defer bg.Done()
				for i := 0; step(i); i++ {
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		background(func(int) bool { // forcer
			end := l.EndLSN()
			if l.Force(end - 1); l.StableLSN() < end {
				t.Errorf("force returned with stable=%d, below the end LSN %d it was asked to cover", l.StableLSN(), end)
				return false
			}
			return true
		})
		background(func(i int) bool { // reader
			mu.Lock()
			var e entry
			if len(all) > 0 {
				e = all[i*7919%len(all)]
			}
			mu.Unlock()
			if got, ok := l.ReadAt(e.lsn); e.data != nil && (!ok || !bytes.Equal(got, e.data)) {
				t.Errorf("record at %d unreadable while appends and forces run (ok=%v)", e.lsn, ok)
				return false
			}
			return true
		})
		for a := 0; a < 4; a++ {
			appenders.Add(1)
			go func(a int) {
				defer appenders.Done()
				for i := 0; i < 150; i++ {
					data := rec(1+(a*31+i*7)%300, byte(a<<6|i&63))
					lsn := l.Append(data)
					mu.Lock()
					all = append(all, entry{lsn, data})
					mu.Unlock()
				}
			}(a)
		}
		appenders.Wait()
		close(stop)
		bg.Wait()
		if st := l.Stats(); st.Syncs-syncs0 != st.Forces {
			t.Fatalf("%d forces cost %d segment syncs, want one each", st.Forces, st.Syncs-syncs0)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
		next := word.LSN(1)
		for _, e := range all {
			if e.lsn != next {
				t.Fatalf("LSNs do not tile: record at %d, want %d", e.lsn, next)
			}
			next += word.LSN(len(e.data))
		}
		// What the last force left volatile dies at a crash; what any force
		// covered does not.
		stable := l.StableLSN()
		l.Crash()
		if l.EndLSN() != stable || next < stable {
			t.Fatalf("EndLSN = %d after crash, want the stable LSN %d (appended through %d)", l.EndLSN(), stable, next)
		}
		for _, e := range all {
			got, ok := l.ReadAt(e.lsn)
			if covered := e.lsn < stable; ok != covered || (ok && !bytes.Equal(got, e.data)) {
				t.Fatalf("record at %d (stable LSN %d): readable=%v after crash", e.lsn, stable, ok)
			}
		}
	})

	// Truncate(NilLSN) — or any keep ≤ 1 — frees nothing: the boundary
	// arithmetic must not wrap below LSN 1.
	t.Run("TruncateNilIsNoOp", func(t *testing.T) {
		l, _ := mk(t, 64)
		for i := 0; i < 10; i++ {
			l.Append(rec(40, byte(i)))
		}
		storage.ForceAll(l)
		for _, keep := range []word.LSN{word.NilLSN, 1} {
			l.Truncate(keep)
			if got := l.RetainedBytes(); got != 400 {
				t.Fatalf("Truncate(%d): RetainedBytes = %d, want 400", keep, got)
			}
			if got := l.TruncLSN(); got != 1 {
				t.Fatalf("Truncate(%d): TruncLSN = %d, want 1", keep, got)
			}
			if _, ok := l.ReadAt(1); !ok {
				t.Fatalf("Truncate(%d): the first record is gone", keep)
			}
		}
	})

	t.Run("RandomOpsMatchReference", func(t *testing.T) {
		for _, seg := range []int{64, 256} {
			seg := seg
			t.Run(fmt.Sprintf("seg%d", seg), func(t *testing.T) {
				dut, _ := mk(t, seg)
				ref := &refLog{seg: seg, stable: 1, end: 1, trunc: 1}
				r := rand.New(rand.NewSource(int64(seg) * 7919))
				for step := 0; step < 400; step++ {
					op := r.Intn(9)
					switch {
					case op < 4: // append
						data := rec(1+r.Intn(2*seg/3), byte(step))
						if a, b := dut.Append(data), ref.append(data); a != b {
							t.Fatalf("step %d: append LSN %d vs %d", step, a, b)
						}
					case op < 6: // force
						if ref.end > 1 {
							lsn := word.LSN(1 + r.Int63n(int64(ref.end-1)))
							dut.Force(lsn)
							ref.force(lsn)
						}
					case op == 6: // crash
						dut.Crash()
						ref.crashTorn(ref.stable)
					case op == 7: // torn crash
						cut := ref.stable + word.LSN(r.Int63n(int64(ref.end-ref.stable+1)))
						dut.CrashTorn(cut)
						ref.crashTorn(cut)
					case op == 8: // truncate to a legal keep point
						if ref.stable > ref.trunc {
							keep := ref.trunc + word.LSN(r.Int63n(int64(ref.stable-ref.trunc+1)))
							dut.Truncate(keep)
							ref.truncate(keep)
						}
					}
					compareLogs(t, step, dut, ref)
				}
			})
		}
	})
}

// refLog is the reference the random-op driver holds the device to: the
// log's semantics as a slice of retained records, with none of its
// segment files, index or force machinery.
type refLog struct {
	seg                int
	recs               []refRec // retained records, stable and volatile, ascending LSN
	stable, end, trunc word.LSN
}

type refRec struct {
	lsn  word.LSN
	data []byte
}

func (m *refLog) append(data []byte) word.LSN {
	lsn := m.end
	m.recs = append(m.recs, refRec{lsn, append([]byte(nil), data...)})
	m.end += word.LSN(len(data))
	return lsn
}

// force makes stable every record that starts at or below lsn.
func (m *refLog) force(lsn word.LSN) {
	if lsn < m.stable {
		return
	}
	m.stable = m.end
	for _, e := range m.recs {
		if e.lsn > lsn {
			m.stable = e.lsn
			break
		}
	}
}

// crashTorn keeps the records that end at or below cut; the log ends
// where one straddling cut begins — a torn record is cut off whole — or
// at cut.
func (m *refLog) crashTorn(cut word.LSN) {
	m.end = cut
	for i, e := range m.recs {
		if e.lsn+word.LSN(len(e.data)) > cut {
			m.end = min(e.lsn, cut)
			m.recs = m.recs[:i]
			break
		}
	}
	m.stable = m.end
}

// truncate moves the truncation point to the largest segment boundary at
// or below keep and drops the records wholly below it.
func (m *refLog) truncate(keep word.LSN) {
	if keep <= 1 {
		return
	}
	boundary := (keep-1)/word.LSN(m.seg)*word.LSN(m.seg) + 1
	if boundary <= m.trunc {
		return
	}
	for len(m.recs) > 0 && m.recs[0].lsn+word.LSN(len(m.recs[0].data)) <= boundary {
		m.recs = m.recs[1:]
	}
	m.trunc = boundary
}

// compareLogs asserts every observable of the device under test equals the
// reference's.
func compareLogs(t *testing.T, step int, dut *storage.Log, ref *refLog) {
	t.Helper()
	if dut.EndLSN() != ref.end || dut.StableLSN() != ref.stable || dut.TruncLSN() != ref.trunc {
		t.Fatalf("step %d: LSNs diverge: end %d/%d stable %d/%d trunc %d/%d",
			step, dut.EndLSN(), ref.end, dut.StableLSN(), ref.stable, dut.TruncLSN(), ref.trunc)
	}
	var retained int64
	var want []string
	for _, e := range ref.recs {
		retained += int64(len(e.data))
		want = append(want, fmt.Sprintf("%d:%x", e.lsn, e.data))
	}
	if dut.RetainedBytes() != retained {
		t.Fatalf("step %d: retained bytes %d vs %d", step, dut.RetainedBytes(), retained)
	}
	var got []string
	storage.Scan(dut, 1, false, func(lsn word.LSN, data []byte) bool {
		got = append(got, fmt.Sprintf("%d:%x", lsn, data))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("step %d: scan lengths %d vs %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: scan record %d: %.60s vs %.60s", step, i, got[i], want[i])
		}
	}
}

// Home returns the two backings one store lives in — the page store's and
// the log's. RunReopen opens the devices over them, abandons or closes
// them, and opens them again, as a process restart reopens its directory.
type Home func(t *testing.T) (disk, log storage.Backing)

// RunReopen runs the restart cases over a backing kind: what a reopen of
// the same backings parses back.
func RunReopen(t *testing.T, home Home) {
	open := func(t *testing.T, db, lb storage.Backing, pageSize, segBytes int) (*storage.Disk, *storage.Log) {
		t.Helper()
		d, err := storage.OpenDisk(db, pageSize)
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		l, err := storage.OpenLog(lb, segBytes)
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		return d, l
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	segFiles := func(t *testing.T, lb storage.Backing) []string {
		t.Helper()
		names, err := lb.List("seg-")
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	segName := func(first word.LSN) string { return fmt.Sprintf("seg-%016x.seg", uint64(first)) }

	t.Run("ReopenRoundTrip", func(t *testing.T) {
		db, lb := home(t)
		d, l := open(t, db, lb, 512, 128)
		for i := 0; i < 20; i++ {
			d.WritePage(word.PageID(i), fill(512, byte(i+1)), word.LSN(100+i))
		}
		var lsns []word.LSN
		for i := 0; i < 10; i++ {
			lsns = append(lsns, l.Append(fill(30+i, byte(0xA0+i))))
		}
		storage.ForceAll(l)
		m := d.Master()
		m.Formatted = true
		m.CheckpointLSN = lsns[7]
		d.SetMaster(m)
		endLSN, truncLSN := l.EndLSN(), l.TruncLSN()
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		rd, rl := open(t, db, lb, 0, 0) // sizes come from the backing, not the caller
		defer rl.Close()
		defer rd.Close()
		if rd.PageSize() != 512 {
			t.Fatalf("reopened PageSize = %d", rd.PageSize())
		}
		if rl.SegmentBytes() != 128 {
			t.Fatalf("reopened SegmentBytes = %d", rl.SegmentBytes())
		}
		for i := 0; i < 20; i++ {
			data, lsn, ok := rd.ReadPage(word.PageID(i))
			if !ok || lsn != word.LSN(100+i) || !bytes.Equal(data, fill(512, byte(i+1))) {
				t.Fatalf("page %d: ok=%v lsn=%d", i, ok, lsn)
			}
		}
		if rm := rd.Master(); !rm.Formatted || rm.CheckpointLSN != lsns[7] {
			t.Fatalf("master lost: %+v", rm)
		}
		if rl.EndLSN() != endLSN || rl.StableLSN() != endLSN || rl.TruncLSN() != truncLSN {
			t.Fatalf("log LSNs: end=%d stable=%d trunc=%d, want end=stable=%d trunc=%d",
				rl.EndLSN(), rl.StableLSN(), rl.TruncLSN(), endLSN, truncLSN)
		}
		for i, lsn := range lsns {
			data, ok := rl.ReadAt(lsn)
			if !ok || !bytes.Equal(data, fill(30+i, byte(0xA0+i))) {
				t.Fatalf("log record %d at %d: ok=%v", i, lsn, ok)
			}
		}
	})

	// A clone of a home's backings is a second home: reopened, it holds the
	// bytes at the fork, and neither side's later writes reach the other.
	t.Run("CloneIndependent", func(t *testing.T) {
		db, lb := home(t)
		d, l := open(t, db, lb, 512, 128)
		d.WritePage(2, fill(512, 0x22), 10)
		m := d.Master()
		m.Formatted = true
		d.SetMaster(m)
		at := l.Append(fill(16, 0xA1))
		storage.ForceAll(l)
		cdb, err := db.Clone()
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		clb, err := lb.Clone()
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		cd, cl := open(t, cdb, clb, 0, 0)
		d.WritePage(2, fill(512, 0x33), 11)
		l.Append(fill(16, 0xA2))
		cd.WritePage(5, fill(512, 0x55), 12)
		cl.Append(fill(24, 0xB2))
		for _, c := range []io.Closer{d, l, cd, cl} {
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
		for _, side := range []struct {
			name   string
			db, lb storage.Backing
			page2  byte
			page5  bool
			next   []byte // the record forced after the fork
		}{
			{"parent", db, lb, 0x33, false, fill(16, 0xA2)},
			{"clone", cdb, clb, 0x22, true, fill(24, 0xB2)},
		} {
			d, l := open(t, side.db, side.lb, 0, 0)
			if data, _, _ := d.ReadPage(2); data[0] != side.page2 || !d.Master().Formatted {
				t.Fatalf("%s: page 2 holds %#x, want %#x; master %+v", side.name, data[0], side.page2, d.Master())
			}
			if _, _, ok := d.ReadPage(5); ok != side.page5 {
				t.Fatalf("%s: page 5 present = %v, want %v", side.name, ok, side.page5)
			}
			first, _ := l.ReadAt(at)
			next, _ := l.ReadAt(at + 16)
			if !bytes.Equal(first, fill(16, 0xA1)) || !bytes.Equal(next, side.next) || l.EndLSN() != at+16+word.LSN(len(side.next)) {
				t.Fatalf("%s: log holds %d+%d bytes from the fork, end %d", side.name, len(first), len(next), l.EndLSN())
			}
			d.Close()
			l.Close()
		}
	})

	t.Run("ReopenAfterTruncate", func(t *testing.T) {
		db, lb := home(t)
		d, l := open(t, db, lb, 512, 64)
		for i := 0; i < 12; i++ {
			l.Append(fill(16, byte(i)))
			if i%4 == 3 {
				storage.ForceAll(l) // one 64-byte segment per force: the file rolls each time
			}
		}
		l.Truncate(129) // the files holding LSNs 1..64 and 65..128 freed
		if got := l.TruncLSN(); got != 129 {
			t.Fatalf("TruncLSN = %d", got)
		}
		l.Close()
		d.Close()

		// Physical reclamation: the freed segment files are gone.
		if names := segFiles(t, lb); len(names) != 1 || names[0] != segName(129) {
			t.Fatalf("segment files after truncate+close: %v, want only %s", names, segName(129))
		}
		rd, rl := open(t, db, lb, 0, 0)
		defer rl.Close()
		defer rd.Close()
		if rl.TruncLSN() != 129 || rl.EndLSN() != 193 {
			t.Fatalf("reopened trunc=%d end=%d", rl.TruncLSN(), rl.EndLSN())
		}
		if _, ok := rl.ReadAt(65); ok {
			t.Fatal("truncated record resurrected by reopen")
		}
		if _, ok := rl.ReadAt(129); !ok {
			t.Fatal("retained record lost on reopen")
		}
	})

	// tornImage leaves in the backings a log whose last force a kill tore
	// mid-record: the record at frag has a whole header and 13 of its 40
	// payload bytes, and the 8-byte record after it is lost. With 40-byte
	// segments the torn record is the first of a segment file of its own.
	tornImage := func(t *testing.T, segBytes int) (db, lb storage.Backing, first, frag word.LSN) {
		t.Helper()
		db, lb = home(t)
		d, l := open(t, db, lb, 512, segBytes)
		first = l.Append(fill(20, 0x11))
		storage.ForceAll(l)
		frag = l.Append(fill(40, 0x22))
		l.Append(fill(8, 0x44))
		storage.ForceAll(l)
		l.Abandon()
		d.Abandon()
		names := segFiles(t, lb)
		f, err := lb.Open(names[len(names)-1], false)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		size, _ := f.Size()
		f.Truncate(size - (20 + 8) - (40 - 13))
		return db, lb, first, frag
	}
	layouts := map[string]int{"mid-segment": 1 << 20, "own segment": 40}

	// The torn-tail contract across a restart: the open cuts a torn final
	// record off at its header. The log ends at the torn record's LSN,
	// nothing at or past it reads back, and the records before it do.
	t.Run("ReopenTornTail", func(t *testing.T) {
		for name, segBytes := range layouts {
			t.Run(name, func(t *testing.T) {
				db, lb, first, frag := tornImage(t, segBytes)
				rd, rl := open(t, db, lb, 0, 0)
				defer rl.Close()
				defer rd.Close()
				if rl.EndLSN() != frag || rl.StableLSN() != frag {
					t.Fatalf("reopened end=%d stable=%d, want %d", rl.EndLSN(), rl.StableLSN(), frag)
				}
				var got []word.LSN
				storage.Scan(rl, 1, false, func(lsn word.LSN, _ []byte) bool {
					got = append(got, lsn)
					return true
				})
				if len(got) != 1 || got[0] != first {
					t.Fatalf("records after reopen: %v, want only %d", got, first)
				}
				if _, ok := rl.ReadAt(frag); ok {
					t.Fatal("the torn record reads back")
				}
				if data, ok := rl.ReadAt(first); !ok || !bytes.Equal(data, fill(20, 0x11)) {
					t.Fatal("the record before the tear is lost")
				}
			})
		}
	})

	// After the cut, the log goes on from the torn record's LSN, and what
	// it forces there parses cleanly at the next open: no byte of the
	// torn record is left behind the new ones.
	t.Run("ReopenTornTailAppends", func(t *testing.T) {
		for name, segBytes := range layouts {
			t.Run(name, func(t *testing.T) {
				db, lb, first, frag := tornImage(t, segBytes)
				rd, rl := open(t, db, lb, 0, 0)
				if lsn := rl.Append(fill(8, 0x33)); lsn != frag {
					t.Fatalf("append after the cut at %d, want %d", lsn, frag)
				}
				storage.ForceAll(rl)
				rl.Close()
				rd.Close()

				rd, rl = open(t, db, lb, 0, 0)
				defer rl.Close()
				defer rd.Close()
				if rl.EndLSN() != frag+8 || rl.RetainedBytes() != 28 {
					t.Fatalf("final end=%d retained=%d, want %d and 28", rl.EndLSN(), rl.RetainedBytes(), frag+8)
				}
				if data, ok := rl.ReadAt(frag); !ok || !bytes.Equal(data, fill(8, 0x33)) {
					t.Fatal("the record appended after the cut is lost")
				}
				if data, ok := rl.ReadAt(first); !ok || !bytes.Equal(data, fill(20, 0x11)) {
					t.Fatal("the record before the tear is lost")
				}
				var bytesOnDisk int64
				for _, name := range segFiles(t, lb) {
					f, _ := lb.Open(name, false)
					size, _ := f.Size()
					f.Close()
					bytesOnDisk += size
				}
				if want := int64(2*20 + 20 + 8); bytesOnDisk != want {
					t.Fatalf("segment files hold %d bytes, want %d: torn bytes linger behind the new record", bytesOnDisk, want)
				}
			})
		}
	})

	// CrashTorn leaves the log in process exactly as an open of its backing
	// finds it: same end, same stable LSN, the same records.
	t.Run("CrashTornMatchesReopen", func(t *testing.T) {
		for name, segBytes := range layouts {
			t.Run(name, func(t *testing.T) {
				db, lb := home(t)
				d, l := open(t, db, lb, 512, segBytes)
				defer d.Abandon()
				first := l.Append(fill(20, 0x11))
				storage.ForceAll(l)
				frag := l.Append(fill(40, 0x22))
				lsns := []word.LSN{first, frag, l.Append(fill(8, 0x44))}
				l.CrashTorn(frag + 13)
				rl, err := storage.OpenLog(lb, 0)
				if err != nil {
					t.Fatalf("OpenLog: %v", err)
				}
				defer rl.Abandon()
				if l.EndLSN() != frag || rl.EndLSN() != l.EndLSN() || rl.StableLSN() != l.StableLSN() || rl.RetainedBytes() != l.RetainedBytes() {
					t.Fatalf("in process end=%d stable=%d retained=%d, reopened %d/%d/%d; want the end at %d",
						l.EndLSN(), l.StableLSN(), l.RetainedBytes(), rl.EndLSN(), rl.StableLSN(), rl.RetainedBytes(), frag)
				}
				for _, lsn := range lsns {
					a, okA := l.ReadAt(lsn)
					b, okB := rl.ReadAt(lsn)
					if okA != okB || !bytes.Equal(a, b) || okA != (lsn < frag) {
						t.Fatalf("record at %d: in process %v, reopened %v, want readable %v", lsn, okA, okB, lsn < frag)
					}
				}
			})
		}
	})

	// A whole record header that fails validation is rot, not a tear — in
	// the last segment as anywhere else, and on the final record too, whose
	// rotted length may claim more bytes than the file holds. The reopen
	// refuses the log with a CorruptFrameError naming the record and cuts
	// nothing: a torn-tail cut there would drop acknowledged records.
	t.Run("ReopenRottedHeader", func(t *testing.T) {
		for _, c := range []struct {
			name     string
			segBytes int      // 1 MiB: one file; 64: records 1 and 2 in the first of two
			lsn      word.LSN // the record rotted: 1, 24 or 47
		}{{"last segment", 1 << 20, 24}, {"mid-log", 64, 24}, {"final record", 1 << 20, 47}} {
			t.Run(c.name, func(t *testing.T) {
				db, lb := home(t)
				d, l := open(t, db, lb, 0, c.segBytes)
				for i := 0; i < 3; i++ { // LSNs 1, 24, 47
					l.Append(fill(23, byte(i+1)))
					storage.ForceAll(l)
				}
				l.Abandon()
				d.Abandon()
				f, _ := lb.Open(segName(1), false)
				defer f.Close()
				off := int64(c.lsn-1)/23*43 + 5 // the record's length field, after 20 + 23 bytes per record before it
				b := []byte{0}
				f.ReadAt(b, off)
				f.WriteAt([]byte{b[0] ^ 1}, off)
				size, _ := f.Size()
				var cf *storage.CorruptFrameError
				if _, err := storage.OpenLog(lb, 0); !errors.As(err, &cf) || cf.LSN != c.lsn {
					t.Fatalf("reopen over a rotted header: %v, want a CorruptFrameError at %d", err, c.lsn)
				}
				if after, _ := f.Size(); after != size {
					t.Fatalf("the refused reopen cut the segment from %d to %d bytes", size, after)
				}
			})
		}
	})

	// Truncate persists the new truncation point before it removes
	// anything, so a kill between the two leaves files that reopening
	// removes — not a truncation point to guess.
	t.Run("TruncateKillBetweenMetaAndUnlink", func(t *testing.T) {
		db, lb := home(t)
		d, l := open(t, db, lb, 0, 64)
		for i := 0; i < 12; i++ {
			l.Append(fill(16, byte(i)))
			if i%4 == 3 {
				storage.ForceAll(l)
			}
		}
		if got := segFiles(t, lb); len(got) != 3 {
			t.Fatalf("setup: files %v, want 3", got)
		}
		l.TruncateHook = func() { panic("killed") }
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("hook did not fire")
				}
			}()
			l.Truncate(150)
		}()
		l.Abandon() // the process is gone: nothing more is written
		d.Abandon()
		if got := segFiles(t, lb); len(got) != 3 {
			t.Fatalf("the kill landed after the unlink: files %v", got)
		}

		rd, rl := open(t, db, lb, 0, 0)
		defer rl.Close()
		defer rd.Close()
		if rl.TruncLSN() != 129 || rl.EndLSN() != 193 {
			t.Fatalf("reopened trunc=%d end=%d, want 129/193", rl.TruncLSN(), rl.EndLSN())
		}
		if got := segFiles(t, lb); len(got) != 1 || got[0] != segName(129) {
			t.Fatalf("reopen left files %v, want only %s", got, segName(129))
		}
		if _, ok := rl.ReadAt(113); ok {
			t.Fatal("record below the truncation point readable")
		}
		if data, ok := rl.ReadAt(129); !ok || !bytes.Equal(data, fill(16, 8)) {
			t.Fatal("record above the truncation point lost")
		}
	})
}
