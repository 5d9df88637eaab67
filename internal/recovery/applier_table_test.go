package recovery_test

import (
	"math/rand"
	"reflect"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/crashtest"
	"stableheap/internal/recovery"
	"stableheap/internal/storage"
	"stableheap/internal/vm"
	"stableheap/internal/wal"
	"stableheap/internal/word"
)

// The sentence in applier.go's header, executed: after applying the shipped
// prefix through L, the standby's dirty page table is the table a recovery
// of its (disk, stable log) pair at L reconstructs. The primary runs a
// seeded crashtest workload with page flushes (end-write records), a
// checkpoint and a stable collection left in flight; the standby takes its
// log one record at a time and is compared against a fresh analysis at
// every cut. A hand-built update straddling a page boundary, followed by
// the end-write of its first page only, closes the log: the case on which
// the applier and analysis used to disagree.
func TestApplierTableEqualsAnalysis(t *testing.T) {
	cfg := core.Config{PageSize: 256, StableWords: 16 * 1024, VolatileWords: 4 * 1024}
	for seed := int64(1); seed <= 3; seed++ {
		d := crashtest.New(cfg, seed)
		step := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				if err := d.Step(); err != nil {
					t.Fatalf("seed %d: step: %v", seed, err)
				}
			}
		}
		step(40)
		hp := d.Heap()
		disk, logDev := hp.BaseBackup()
		hp.SetLogRetainFloor("test", logDev.EndLSN())
		mgr := wal.NewManager(logDev)
		mem := vm.New(vm.Config{PageSize: cfg.PageSize}, disk, mgr)
		ap, err := recovery.StartApplier(mem, mgr, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: StartApplier: %v", seed, err)
		}

		records, cuts := 0, 0
		check := func() {
			t.Helper()
			cuts++
			l := logDev.Clone()
			m := wal.NewManager(l)
			fresh := vm.New(vm.Config{PageSize: cfg.PageSize}, disk.Clone(), m)
			res, err := recovery.Recover(fresh, m, recovery.Options{})
			if err != nil {
				t.Fatalf("seed %d: analysis at LSN %d: %v", seed, logDev.EndLSN(), err)
			}
			if got := ap.Table(); !reflect.DeepEqual(got, res.CP.Dirty) {
				t.Fatalf("seed %d: after %d records (LSN %d) the applier's table\n%v\nis not the one analysis reconstructs\n%v",
					seed, records, logDev.EndLSN(), got, res.CP.Dirty)
			}
		}
		apply := func(frame []byte) {
			t.Helper()
			rec, err := wal.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			lsn := logDev.Append(frame)
			storage.ForceAll(logDev)
			ap.Apply(lsn, rec)
			if records++; records%37 == 0 {
				check()
			}
		}
		ship := func() {
			t.Helper()
			hp.Log().ForceAll()
			data, _, err := hp.ShipLog(logDev.EndLSN(), 1<<30)
			if err != nil {
				t.Fatalf("seed %d: ship: %v", seed, err)
			}
			for off := 0; off < len(data); {
				n, err := wal.FrameLen(data[off:])
				if err != nil {
					t.Fatal(err)
				}
				apply(data[off : off+n])
				off += n
			}
			check()
		}
		flushSome := func() {
			rng := rand.New(rand.NewSource(seed * 7919))
			for _, pg := range hp.Mem().ResidentPages() {
				if rng.Float64() < 0.4 {
					hp.Mem().FlushPage(pg)
				}
			}
		}

		step(30)
		flushSome()
		ship()
		hp.Checkpoint()
		hp.StartStableCollection()
		for i := 0; i < 4; i++ {
			hp.StepStable()
		}
		step(10)
		flushSome()
		ship()
		if st := ap.Stats(); st.Flushes == 0 || st.Checkpoints == 0 {
			t.Fatalf("seed %d: log too tame for the comparison: %+v", seed, st)
		}

		ps := word.Addr(cfg.PageSize)
		tx := wal.TxHdr{TxID: 1 << 40}
		apply(wal.Encode(wal.BeginRec{TxHdr: tx}))
		apply(wal.Encode(wal.UpdateRec{TxHdr: tx, Addr: 5*ps - word.WordSize,
			Redo: make([]byte, 2*word.WordSize), Undo: make([]byte, 2*word.WordSize)}))
		apply(wal.Encode(wal.CommitRec{TxHdr: tx}))
		check()
		apply(wal.Encode(wal.EndWriteRec{Page: 4}))
		check()
		if cuts < 6 {
			t.Fatalf("seed %d: only %d cut points compared", seed, cuts)
		}
	}
}
