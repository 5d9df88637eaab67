package core

import (
	"errors"
	"testing"

	"stableheap/internal/histcheck"
	"stableheap/internal/storage/filestore"
	"stableheap/internal/wal"
)

// bornWriter is transaction A of the born-object tests: it allocates X and
// Y, writes both through their born refs (X.data0 = 41, X.ptr0 = Y,
// Y.data0 = 42), links X into the pre-existing shared object S (a locked,
// undone write) and publishes X through volatile root 0 (an unlocked one).
func bornWriter(t *testing.T, hp *Heap) (a *Tx, x *Ref) {
	t.Helper()
	a = hp.Begin()
	x, err := a.Alloc(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := a.Alloc(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !x.BornIn(a.t) || !y.BornIn(a.t) {
		t.Fatal("Alloc on a divided heap must return born refs")
	}
	s, err := a.VolRoot(1)
	if err != nil || s == nil {
		t.Fatalf("shared object: %v", err)
	}
	for _, err := range []error{
		a.SetData(x, 0, 41), a.SetPtr(x, 0, y), a.SetData(y, 0, 42),
		a.SetPtr(s, 0, x), a.SetVolRoot(0, x),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return a, x
}

// bornHeap opens a divided heap whose volatile root 1 holds a committed
// shared object S (one pointer, nil) and returns it with a history recorder
// installed.
func bornHeap(t *testing.T) (*Heap, *histcheck.Recorder) {
	t.Helper()
	hp := openMem(smallCfg())
	t.Cleanup(func() { hp.Close() })
	tr := hp.Begin()
	s, err := tr.Alloc(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetVolRoot(1, s); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	rec := histcheck.NewRecorder()
	hp.SetHistoryRecorder(rec)
	return hp, rec
}

// TestBornObjectInvisibleUntilCommit: writes through a born ref take no lock
// of their own, so the creator's lock alone must keep another transaction
// out of the object — even one that reached it through an unlocked volatile
// root while its creator was still running — whether the object is still in
// the creator's allocation chunk (the lock is its birth range), has been
// promoted out of it by a minor collection (the minor made the lock an
// entry at its new address), or is reached by a third transaction's commit
// through a stable slot (its tracker must wait for the creator).
func TestBornObjectInvisibleUntilCommit(t *testing.T) {
	for _, c := range []struct {
		name  string
		minor bool
	}{{"in the chunk", false}, {"promoted by a minor", true}} {
		t.Run(c.name, func(t *testing.T) {
			hp, rec := bornHeap(t)
			acquires := hp.Metrics().Counter("lock_acquires_total")
			a, _ := bornWriter(t, hp)
			// S's write lock; nothing for the births or the born writes.
			if n := hp.Metrics().Counter("lock_acquires_total") - acquires; n != 1 {
				t.Fatalf("transaction A took %d locks, want 1 (S)", n)
			}
			if c.minor {
				if n, err := hp.CollectNursery(); err != nil || n == 0 {
					t.Fatalf("minor collection promoted %d objects, %v", n, err)
				}
			}

			b := hp.Begin()
			bx, err := b.VolRoot(0) // unlocked: B holds a handle on A's object
			if err != nil || bx == nil {
				t.Fatalf("volatile root 0: %v, %v", bx, err)
			}
			if bx.BornIn(b.t) {
				t.Fatal("a ref read from a root is never born")
			}
			if hp.inNursery(bx.Addr()) == c.minor {
				t.Fatalf("X at %v: in the nursery %v, want %v", bx.Addr(), !c.minor, c.minor)
			}
			probe := hp.Begin()
			px, _ := probe.VolRoot(0)
			if _, err := probe.Data(px, 0); !errors.Is(err, ErrConflict) {
				t.Fatalf("Data on an object born in an active transaction: %v, want ErrConflict", err)
			}
			probe.Abort()

			commit(t, a)
			if v, err := b.Data(bx, 0); err != nil || v != 41 {
				t.Fatalf("X.data0 after A committed = %d, %v; want 41", v, err)
			}
			by, err := b.Ptr(bx, 0)
			if err != nil || by == nil {
				t.Fatalf("X.ptr0 after A committed: %v, %v", by, err)
			}
			if v, err := b.Data(by, 0); err != nil || v != 42 {
				t.Fatalf("Y.data0 after A committed = %d, %v; want 42", v, err)
			}
			commit(t, b)
			if err := histcheck.Check(rec.History()); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("reached by a third commit", func(t *testing.T) {
		hp, rec := bornHeap(t)
		a, _ := bornWriter(t, hp)
		waits := hp.Metrics().Counter("track_lock_waits_total")
		c := hp.Begin()
		cx, err := c.VolRoot(0)
		if err != nil || cx == nil {
			t.Fatalf("volatile root 0: %v, %v", cx, err)
		}
		if err := c.SetRoot(0, cx); err != nil { // a stable slot names X
			t.Fatal(err)
		}
		if err := c.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("a commit that makes A's object stable while A runs: %v, want ErrConflict", err)
		}
		if n := hp.Metrics().Counter("track_lock_waits_total") - waits; n != 1 {
			t.Fatalf("the tracker found %d write-locked objects, want X", n)
		}
		commit(t, a)
		d := hp.Begin()
		dx, _ := d.VolRoot(0)
		if err := d.SetRoot(0, dx); err != nil {
			t.Fatal(err)
		}
		commit(t, d)
		e := hp.Begin()
		ex, err := e.Root(0)
		if err != nil || ex == nil {
			t.Fatalf("stable root 0: %v, %v", ex, err)
		}
		if v, err := e.Data(ex, 0); err != nil || v != 41 {
			t.Fatalf("X.data0 through the stable root = %d, %v; want 41", v, err)
		}
		commit(t, e)
		if err := histcheck.Check(rec.History()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAbortLeavesBornObjectsUnreachable: born writes keep no undo, so an
// abort must still restore every pre-existing word A changed, leave the
// born objects with no reader — a handle taken through the unlocked root
// reads the zero fields Alloc left — and leave them garbage: the next
// collection copies exactly what it copied before A ran.
func TestAbortLeavesBornObjectsUnreachable(t *testing.T) {
	hp, rec := bornHeap(t)
	copied := func() int64 {
		before := hp.Metrics().Counter("vgc_copied_objects_total")
		if _, err := hp.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		return hp.Metrics().Counter("vgc_copied_objects_total") - before
	}
	live := copied()

	a, _ := bornWriter(t, hp)
	b := hp.Begin()
	bx, _ := b.VolRoot(0)
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, err := b.Data(bx, 0); err != nil || v != 0 {
		t.Fatalf("aborted X.data0 = %d, %v; want the zero Alloc left", v, err)
	}
	if p, err := b.Ptr(bx, 0); err != nil || p != nil {
		t.Fatalf("aborted X.ptr0 = %v, %v; want nil", p, err)
	}
	commit(t, b)

	c := hp.Begin()
	if r, err := c.VolRoot(0); err != nil || r != nil {
		t.Fatalf("volatile root 0 after abort = %v, %v; want nil", r, err)
	}
	s, _ := c.VolRoot(1)
	if p, err := c.Ptr(s, 0); err != nil || p != nil {
		t.Fatalf("shared slot after abort = %v, %v; want nil", p, err)
	}
	commit(t, c)
	if err := histcheck.Check(rec.History()); err != nil {
		t.Fatal(err)
	}
	if n := copied(); n != live {
		t.Fatalf("collection after the abort copied %d objects, %d before A ran", n, live)
	}
}

// TestWritePathAllocFree pins the per-word and per-record costs at zero Go
// allocations: a word written into a resident volatile object (through a
// born ref and through one read back from a root), a resident page read,
// and a record spooled to the file log (one arena per many records).
func TestWritePathAllocFree(t *testing.T) {
	hp := openMem(smallCfg())
	defer hp.Close()
	tr := hp.Begin()
	defer tr.Abort()
	born, err := tr.Alloc(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := tr.Alloc(1, 1, 1)
	if err := tr.SetVolRoot(0, born); err != nil {
		t.Fatal(err)
	}
	reread, _ := tr.VolRoot(0)
	if err := tr.SetData(reread, 0, 1); err != nil { // take the lock once
		t.Fatal(err)
	}
	var v uint64
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"SetData/born", func() error { v++; return tr.SetData(born, 0, v) }},
		{"SetPtr/born", func() error { return tr.SetPtr(born, 0, other) }},
		{"SetData/reread", func() error { v++; return tr.SetData(reread, 0, v) }},
		{"SetPtr/reread", func() error { return tr.SetPtr(reread, 0, other) }},
	} {
		var ferr error
		if n := testing.AllocsPerRun(200, func() {
			if err := c.fn(); err != nil {
				ferr = err
			}
		}); n != 0 || ferr != nil {
			t.Errorf("%s: %v allocations per write (err %v), want 0", c.name, n, ferr)
		}
	}

	addr := born.Addr()
	hp.mem.ReadWord(addr)
	if n := testing.AllocsPerRun(1000, func() { v += hp.mem.ReadWord(addr) }); n != 0 {
		t.Errorf("vm.Store.ReadWord on a resident page: %v allocations, want 0", n)
	}

	fs, err := filestore.Open(t.TempDir(), filestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rec := wal.Encode(wal.EndRec{TxHdr: wal.TxHdr{TxID: 7, PrevLSN: 1}})
	// AllocsPerRun truncates its average, so each run spools a thousand
	// records: fewer than ten allocations a run is under 0.01 a record.
	const perRun = 1000
	if n := testing.AllocsPerRun(20, func() {
		for range perRun {
			fs.Log.Append(rec)
		}
	}); n >= perRun/100 {
		t.Errorf("filestore.Log.Append: %v allocations per %d records, want < %d", n, perRun, perRun/100)
	}
}
