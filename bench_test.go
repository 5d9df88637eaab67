// Benchmarks: one kernel per experiment of DESIGN.md §5 (E1–E11; E12 is a
// correctness sweep and lives in internal/crashtest's tests). Each
// benchmark exercises the hot path its table measures; run
// `go run ./cmd/shbench all` for the full formatted tables.
package stableheap_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stableheap"
	"stableheap/internal/core"
	"stableheap/internal/storage"
	"stableheap/internal/workload"
)

func benchCfg(stableWords, volWords int) stableheap.Config {
	return stableheap.Config{
		PageSize:      1024,
		StableWords:   stableWords,
		VolatileWords: volWords,
	}
}

// openWithChain returns a heap with an n-node committed chain under root 0,
// already moved into the stable area.
func openWithChain(b *testing.B, cfg stableheap.Config, n int) *stableheap.Heap {
	return buildChain(b, stableheap.Open(cfg), n)
}

// buildChain commits an n-node chain under root 0 of h, moved into the
// stable area, and returns h.
func buildChain(b *testing.B, h *stableheap.Heap, n int) *stableheap.Heap {
	b.Helper()
	// Build in committed batches so the volatile area never has to hold
	// the whole chain at once; each batch prepends to the chain under
	// root 0 and is evacuated to the stable area.
	for built := 0; built < n; {
		batch := n - built
		if batch > 1024 {
			batch = 1024
		}
		tx := h.Begin()
		head, err := tx.Root(0)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			node, err := tx.Alloc(1, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.SetData(node, 0, uint64(built+i)); err != nil {
				b.Fatal(err)
			}
			if err := tx.SetPtr(node, 0, head); err != nil {
				b.Fatal(err)
			}
			head = node
		}
		if err := tx.SetRoot(0, head); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if _, err := h.CollectVolatile(); err != nil {
			b.Fatal(err)
		}
		built += batch
	}
	return h
}

// --- E1: low-level recoverable actions ---------------------------------

func BenchmarkE1Read(b *testing.B) {
	h := openWithChain(b, benchCfg(32*1024, 16*1024), 1)
	tx := h.Begin()
	defer tx.Abort()
	r, _ := tx.Root(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Data(r, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1LoggedUpdate(b *testing.B) {
	h := openWithChain(b, benchCfg(32*1024, 16*1024), 1)
	tx := h.Begin()
	defer tx.Abort()
	r, _ := tx.Root(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.SetData(r, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1VolatileWrite(b *testing.B) {
	h := stableheap.Open(benchCfg(32*1024, 16*1024))
	tx := h.Begin()
	defer tx.Abort()
	v, err := tx.Alloc(1, 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.SetData(v, i%4, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Alloc(b *testing.B) {
	h := stableheap.Open(benchCfg(32*1024, 256*1024))
	// Restart the transaction periodically so allocated objects become
	// garbage (handles pin everything a live transaction allocated) and
	// the volatile collector can reclaim them.
	tx := h.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%8192 == 0 {
			b.StopTimer()
			if err := tx.Abort(); err != nil {
				b.Fatal(err)
			}
			tx = h.Begin()
			b.StartTimer()
		}
		if _, err := tx.Alloc(1, 0, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Abort()
}

// BenchmarkParallelAlloc is BenchmarkE1Alloc with one transaction per
// goroutine (run it at -cpu 1,2): each allocates into its own nursery chunk,
// so goroutines meet only at refills and minor collections.
func BenchmarkParallelAlloc(b *testing.B) {
	h := stableheap.Open(benchCfg(32*1024, 256*1024))
	defer h.Close()
	b.RunParallel(func(pb *testing.PB) {
		tx := h.Begin()
		for i := 1; pb.Next(); i++ {
			if i%8192 == 0 {
				if err := tx.Abort(); err != nil {
					b.Error(err)
					return
				}
				tx = h.Begin()
			}
			if _, err := tx.Alloc(1, 0, 3); err != nil {
				b.Error(err)
				return
			}
		}
		tx.Abort()
	})
}

// BenchmarkParallelRead is BenchmarkE1Read with one transaction per
// goroutine over the same committed object (run it at -cpu 1,2): each read
// is one shared latch hold, so goroutines meet only at the latch's reader
// count and the object's read lock.
func BenchmarkParallelRead(b *testing.B) {
	h := openWithChain(b, benchCfg(32*1024, 16*1024), 1)
	defer h.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tx := h.Begin()
		defer tx.Abort()
		r, err := tx.Root(0)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := tx.Data(r, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkE1Commit(b *testing.B) {
	h := openWithChain(b, benchCfg(32*1024, 16*1024), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := h.Begin()
		r, _ := tx.Root(0)
		if err := tx.SetData(r, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2/E3: collections -------------------------------------------------

func benchCollection(b *testing.B, mode stableheap.GCMode, live int) {
	cfg := benchCfg(live*4+16*1024, 16*1024)
	cfg.StableGC = mode
	h := openWithChain(b, cfg, live)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mode != stableheap.StopTheWorld {
			h.StartStableCollection()
			for h.StepStable() {
			}
		} else {
			h.CollectStable()
		}
	}
	b.ReportMetric(float64(h.Metrics().Counter("gc_copied_objects_total"))/float64(b.N), "objs/collection")
}

func BenchmarkE2CollectionEllis(b *testing.B) { benchCollection(b, stableheap.Ellis, 2048) }
func BenchmarkE2CollectionBaker(b *testing.B) { benchCollection(b, stableheap.Baker, 2048) }
func BenchmarkE3StopTheWorld(b *testing.B)    { benchCollection(b, stableheap.StopTheWorld, 2048) }

// --- E4/E5/E7: recovery ---------------------------------------------------

// benchRecovery times the restart from one crash image — reopening the
// devices and recovering — over fresh clones of the backings the crashed
// heap ran on.
func benchRecovery(b *testing.B, live, tail int, midGC bool) {
	cfg := benchCfg(live*4+16*1024, 16*1024).WithDefaults()
	db, lb := storage.NewMemBacking(), storage.NewMemBacking()
	fresh, err := core.Open(cfg, db, lb)
	if err != nil {
		b.Fatal(err)
	}
	fresh.Close() // format, then adopt through Recover
	disk, log := fresh.Devices()
	h, err := stableheap.Recover(cfg, disk, log)
	if err != nil {
		b.Fatal(err)
	}
	buildChain(b, h, live)
	h.Checkpoint()
	h.Checkpoint()
	for i := 0; i < tail; i++ {
		tx := h.Begin()
		r, _ := tx.Root(0)
		if err := tx.SetData(r, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if midGC {
		h.StartStableCollection()
		h.StepStable()
		// Force the collector records out via a commit.
		tx := h.Begin()
		r, _ := tx.Root(0)
		tx.SetData(r, 0, 1)
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	h.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db2, err := db.Clone()
		if err != nil {
			b.Fatal(err)
		}
		lb2, err := lb.Clone()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.Open(cfg, db2, lb2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4RecoverySmallHeap(b *testing.B) { benchRecovery(b, 512, 200, false) }
func BenchmarkE4RecoveryLargeHeap(b *testing.B) { benchRecovery(b, 8192, 200, false) }
func BenchmarkE5RecoveryLongTail(b *testing.B)  { benchRecovery(b, 2048, 2000, false) }
func BenchmarkE7RecoveryMidGC(b *testing.B)     { benchRecovery(b, 2048, 200, true) }

// --- E6/E9: log volume ----------------------------------------------------

func BenchmarkE6CollectionLogBytes(b *testing.B) {
	cfg := benchCfg(32*1024, 16*1024)
	h := openWithChain(b, cfg, 2048)
	before := h.Log().Device().Stats().BytesAppended
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CollectStable()
	}
	b.ReportMetric(float64(h.Log().Device().Stats().BytesAppended-before)/float64(b.N), "log-bytes/collection")
}

func benchChurn(b *testing.B, divided bool) {
	cfg := benchCfg(32*1024, 32*1024)
	cfg.Undivided = !divided
	h := stableheap.Open(cfg)
	before := h.Log().Device().Stats().BytesAppended
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := h.Begin()
		for j := 0; j < 10; j++ {
			n, err := tx.Alloc(1, 0, 6)
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.SetData(n, 0, uint64(j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(h.Log().Device().Stats().BytesAppended-before)/float64(b.N), "log-bytes/tx")
}

func BenchmarkE9ChurnDivided(b *testing.B)   { benchChurn(b, true) }
func BenchmarkE9ChurnAllStable(b *testing.B) { benchChurn(b, false) }

// --- E8: stability tracking ------------------------------------------------

func benchTracking(b *testing.B, closure int) {
	h := stableheap.Open(benchCfg(512*1024, 256*1024))
	slot := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tx := h.Begin()
		var head *stableheap.Ref
		for j := 0; j < closure; j++ {
			n, err := tx.Alloc(1, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.SetPtr(n, 0, head); err != nil {
				b.Fatal(err)
			}
			head = n
		}
		b.StartTimer()
		// The timed region: publishing + commit-time tracking.
		if err := tx.SetRoot(slot%8, head); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		slot++
		if slot%32 == 0 {
			b.StopTimer()
			if _, err := h.CollectVolatile(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(closure), "objs/commit")
}

func BenchmarkE8Tracking10(b *testing.B)  { benchTracking(b, 10) }
func BenchmarkE8Tracking100(b *testing.B) { benchTracking(b, 100) }

// --- E10: read barriers -----------------------------------------------------

func benchWalkDuringGC(b *testing.B, mode stableheap.GCMode) {
	cfg := benchCfg(64*1024, 16*1024)
	cfg.StableGC = mode
	h := openWithChain(b, cfg, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.StableCollector().Active() {
			h.StartStableCollection()
		}
		tx := h.Begin()
		node, _ := tx.Root(0)
		for node != nil {
			if _, err := tx.Data(node, 0); err != nil {
				b.Fatal(err)
			}
			var err error
			if node, err = tx.Ptr(node, 0); err != nil {
				b.Fatal(err)
			}
		}
		tx.Abort()
	}
	for h.StepStable() {
	}
	b.ReportMetric(float64(h.Metrics().Counter("gc_barrier_traps_total"))/float64(b.N), "traps/walk")
}

func BenchmarkE10WalkEllis(b *testing.B) { benchWalkDuringGC(b, stableheap.Ellis) }
func BenchmarkE10WalkBaker(b *testing.B) { benchWalkDuringGC(b, stableheap.Baker) }

// --- E11: workload throughput -----------------------------------------------

func BenchmarkE11BankTransfer(b *testing.B) {
	h := stableheap.Open(benchCfg(32*1024, 8*1024))
	bank, err := workload.NewBank(h, 0, 64, 8, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := rng.Intn(64), rng.Intn(64)
		if from == to {
			continue
		}
		if err := bank.Transfer(from, to, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11OO7Update(b *testing.B) {
	h := stableheap.Open(benchCfg(32*1024, 8*1024))
	rng := rand.New(rand.NewSource(2))
	db, err := workload.BuildOO7(h, 0, workload.DefaultOO7(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.UpdateT2(rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11CADSession(b *testing.B) {
	h := stableheap.Open(benchCfg(32*1024, 8*1024))
	rng := rand.New(rand.NewSource(3))
	ct, err := workload.BuildCAD(h, 0, workload.DefaultCAD(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ct.EditSession(rng, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style sanity: the benchmarks must leave consistent heaps.
func TestBenchmarkHelpersConsistent(t *testing.T) {
	h := stableheap.Open(benchCfg(32*1024, 16*1024))
	bank, err := workload.NewBank(h, 0, 16, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	total, err := bank.Total()
	if err != nil || total != 1600 {
		t.Fatalf("total=%d err=%v", total, err)
	}
	_ = fmt.Sprintf
}

// --- E13: group commit --------------------------------------------------

func BenchmarkE13GroupCommit(b *testing.B) {
	cfg := benchCfg(64*1024, 32*1024)
	cfg.LockWait = 100 * time.Millisecond
	h := stableheap.Open(cfg)
	setup := h.Begin()
	const workers = 8
	for w := 0; w < workers; w++ {
		n, err := setup.Alloc(1, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := setup.SetRoot(w, n); err != nil {
			b.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		b.Fatal(err)
	}
	h.CollectVolatile()
	forces0 := h.Log().Device().Stats().Forces
	commits0 := h.Metrics().Counter("tx_committed_total")
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := h.Begin()
				n, err := tx.Root(w)
				if err != nil {
					tx.Abort()
					continue
				}
				if err := tx.SetData(n, 0, uint64(i)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil && !errors.Is(err, stableheap.ErrConflict) {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	commits := h.Metrics().Counter("tx_committed_total") - commits0
	forces := h.Log().Device().Stats().Forces - forces0
	if commits > 0 {
		b.ReportMetric(float64(forces)/float64(commits), "forces/commit")
	}
	h.Close()
}

// --- E14: content-carrying copy-record ablation ---------------------------

func BenchmarkE14CopyContentsCollection(b *testing.B) {
	cfg := benchCfg(32*1024, 16*1024)
	cfg.CopyContents = true
	h := openWithChain(b, cfg, 2048)
	before := h.Log().Device().Stats().BytesAppended
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CollectStable()
	}
	b.ReportMetric(float64(h.Log().Device().Stats().BytesAppended-before)/float64(b.N), "log-bytes/collection")
}

// --- E15: checkpoint + truncation cycle ------------------------------------

func BenchmarkE15CheckpointTruncate(b *testing.B) {
	cfg := benchCfg(32*1024, 16*1024)
	cfg.LogSegBytes = 16 * 1024
	h := openWithChain(b, cfg, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := h.Begin()
		r, _ := tx.Root(0)
		if err := tx.SetData(r, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		h.Checkpoint()
		h.TruncateLog()
	}
	dev := h.Log().Device()
	b.ReportMetric(float64(dev.RetainedBytes()), "retained-log-bytes")
}

// --- bulk load: one transaction, many objects ---------------------------------

// BenchmarkBulkLoadOneTx builds a 4 096-node chain in ONE transaction on the
// default configuration, in memory: the minor collections it triggers run
// with the transaction's whole undo list live, which is the case the
// collectors' batched relocation exists for.
//
// born writes each node through the ref Alloc returned: no undo entry and no
// lock beyond the one taken at birth, so lock-acquires/object is exact at
// two (birth and stability tracking) plus the root's one lock over 4 096.
// reread writes each node through a ref read back with Ptr from a holder
// born in the same transaction: one data and one pointer undo entry per
// node, each searched in the one cycle that moves its node, so
// utt-probes/move stays just under two (the holder moves once with no
// entry); it grows with the node count the day a collector goes back to
// sweeping the undo list per object copied.
func BenchmarkBulkLoadOneTx(b *testing.B) {
	const nodes = 4096
	for _, reread := range []bool{false, true} {
		name := "born"
		if reread {
			name = "reread"
		}
		b.Run(name, func(b *testing.B) {
			var probes, moves, acquires int64
			for i := 0; i < b.N; i++ {
				h := stableheap.Open(stableheap.DefaultConfig())
				tx := h.Begin()
				holder, err := tx.Alloc(2, 1, 0)
				if err != nil {
					b.Fatal(err)
				}
				var head *stableheap.Ref
				for n := 0; n < nodes; n++ {
					node, err := tx.Alloc(1, 1, 1)
					if err != nil {
						b.Fatal(err)
					}
					if reread {
						if err := tx.SetPtr(holder, 0, node); err != nil {
							b.Fatal(err)
						}
						if node, err = tx.Ptr(holder, 0); err != nil {
							b.Fatal(err)
						}
					}
					if err := tx.SetData(node, 0, uint64(n)); err != nil {
						b.Fatal(err)
					}
					if err := tx.SetPtr(node, 0, head); err != nil {
						b.Fatal(err)
					}
					head = node
				}
				if err := tx.SetRoot(0, head); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
				c := h.Metrics().Counters
				probes += c["tx_utt_probes_total"]
				moves += c["gc_relocate_moves_total"]
				acquires += c["lock_acquires_total"]
				h.Close()
			}
			b.ReportMetric(float64(probes)/float64(moves), "utt-probes/move")
			b.ReportMetric(float64(acquires)/float64(nodes*b.N), "lock-acquires/object")
		})
	}
}
