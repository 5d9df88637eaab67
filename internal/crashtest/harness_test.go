package crashtest

import (
	"os"
	"path/filepath"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/gc"
	"stableheap/internal/shard"
	"stableheap/internal/storage"
	"stableheap/internal/storage/filestore"
)

// openMem opens a fresh heap over two memory backings, panicking where
// core.Open fails.
func openMem(c core.Config) *core.Heap {
	hp, err := core.Open(c, storage.NewMemBacking(), storage.NewMemBacking())
	if err != nil {
		panic(err)
	}
	return hp
}

// reopen restarts the heap that ran on disk and logDev: core.Open over
// their backings.
func reopen(c core.Config, disk *storage.Disk, logDev *storage.Log) (*core.Heap, error) {
	db, lb := storage.Backings(disk, logDev)
	return core.Open(c, db, lb)
}

// openDir opens the heap in c.Dir.
func openDir(c core.Config) (*core.Heap, error) {
	db, lb, err := filestore.Backings(c.Dir)
	if err != nil {
		return nil, err
	}
	return core.Open(c, db, lb)
}

// openCluster opens the cluster c lays out.
func openCluster(c shard.Config) (*shard.Cluster, error) {
	parts, coord, err := shard.BackingsFor(c)
	if err != nil {
		return nil, err
	}
	return shard.Open(c, parts, coord)
}

func cfg() core.Config {
	return core.Config{
		PageSize:      256,
		StableWords:   16 * 1024,
		VolatileWords: 4 * 1024,
	}
}

func TestWorkloadWithoutCrashes(t *testing.T) {
	d := New(cfg(), 1)
	for i := 0; i < 200; i++ {
		if err := d.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Commits == 0 || d.Stats().VolGCs == 0 {
		t.Fatalf("workload too tame: %+v", d.Stats())
	}
}

func TestCrashMatrixRandom(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		d := New(cfg(), seed)
		if err := d.Run(120, 0.08, 0.5, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d.Stats().Crashes == 0 {
			t.Fatalf("seed %d: no crashes exercised", seed)
		}
	}
}

func TestCrashMatrixNothingFlushed(t *testing.T) {
	d := New(cfg(), 42)
	if err := d.Run(80, 0.1, 0, false); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMatrixEverythingFlushed(t *testing.T) {
	d := New(cfg(), 43)
	if err := d.Run(80, 0.1, 1.0, false); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryDeterminismTwin(t *testing.T) {
	d := New(cfg(), 7)
	if err := d.Run(60, 0.1, 0.5, true); err != nil {
		t.Fatal(err)
	}
}

func TestCrashAfterEveryStepExhaustive(t *testing.T) {
	// For each prefix length k of a fixed script, run the script to step
	// k, crash with a flush pattern derived from k, recover, verify.
	const script = 50
	for k := 1; k <= script; k++ {
		d := New(cfg(), 99) // same seed → same op sequence
		for i := 0; i < k; i++ {
			if err := d.Step(); err != nil {
				t.Fatalf("k=%d step %d: %v", k, i, err)
			}
		}
		frac := float64(k%4) / 3.0
		if err := d.CrashAndRecover(frac, false); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestCrashDuringCollectionHeavy(t *testing.T) {
	// Force mid-collection crashes explicitly.
	for seed := int64(1); seed <= 4; seed++ {
		d := New(cfg(), seed)
		for i := 0; i < 40; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		d.Heap().StartStableCollection()
		d.Heap().StepStable()
		if err := d.CrashAndRecover(0.5, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Keep going after the resumed collection.
		for i := 0; i < 20; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepeatedCrashesBackToBack(t *testing.T) {
	d := New(cfg(), 5)
	for i := 0; i < 10; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if err := d.CrashAndRecover(0.3, false); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

func TestAllStableModeCrashMatrix(t *testing.T) {
	c := cfg()
	c.Undivided = true
	d := New(c, 11)
	if err := d.Run(80, 0.1, 0.5, false); err != nil {
		t.Fatal(err)
	}
}

// TestStableGCModeTable holds every stable collector to the same two
// obligations. Graph preservation: the model's lists survive a collection
// with a reader walking them between every two quanta (traps under page
// protection, transports under Baker and Concurrent). Then the seeded crash
// matrix, closed by a crash forced mid-collection with the twin check, after
// which the resumed collection must finish and the workload carry on. Baker
// and StopTheWorld keep the seeds of the single-mode tests this replaces.
func TestStableGCModeTable(t *testing.T) {
	seeds := map[gc.Mode]int64{gc.Ellis: 14, gc.EllisTrapDriven: 15, gc.Baker: 12, gc.StopTheWorld: 13, gc.Concurrent: 16}
	for mode := gc.Mode(0); mode.Valid(); mode++ {
		t.Run(mode.String(), func(t *testing.T) {
			c := cfg()
			c.StableGC = mode
			// The test paces a concurrent scan itself, so "mid-collection"
			// does not depend on how far a collector goroutine got.
			c.ManualScan = true
			steps := func(d *Driver, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if err := d.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}

			d := New(c, seeds[mode])
			steps(d, 60)
			d.Heap().CollectStable() // nothing in flight before the measured flip
			flips := d.Heap().Metrics().Counter("gc_collections_total")
			d.Heap().StartStableCollection()
			if active := d.Heap().StableCollector().Active(); active != (mode != gc.StopTheWorld) {
				t.Fatalf("after the flip: collection active = %v", active)
			}
			for more := true; more; more = d.Heap().StepStable() {
				if err := d.Verify(); err != nil {
					t.Fatalf("reader during the collection: %v", err)
				}
			}
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
			if got := d.Heap().Metrics().Counter("gc_collections_total") - flips; got != 1 {
				t.Fatalf("%d collections ran, want the one walked through", got)
			}

			d = New(c, seeds[mode])
			if err := d.Run(80, 0.1, 0.5, false); err != nil {
				t.Fatal(err)
			}
			if d.Stats().Crashes == 0 {
				t.Fatal("no crashes exercised")
			}
			d.Heap().CollectStable()
			d.Heap().StartStableCollection()
			d.Heap().StepStable()
			if err := d.CrashAndRecover(0.5, true); err != nil {
				t.Fatalf("crash mid-collection: %v", err)
			}
			steps(d, 20)
			d.Heap().CollectStable()
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCopyContentsModeCrashMatrix(t *testing.T) {
	c := cfg()
	c.CopyContents = true // E14 ablation: self-contained copy records
	d := New(c, 21)
	if err := d.Run(100, 0.1, 0.5, true); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Crashes == 0 {
		t.Fatal("no crashes exercised")
	}
}

func TestMediaRecoveryMatrix(t *testing.T) {
	// Run a workload, destroy the disk, rebuild from the log archive,
	// verify the model.
	d := New(cfg(), 31)
	for i := 0; i < 80; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.MediaRecover(); err != nil {
		t.Fatal(err)
	}
	// Keep working on the rebuilt heap, then crash-recover normally.
	for i := 0; i < 30; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CrashAndRecover(0.5, false); err != nil {
		t.Fatal(err)
	}
}

// TestMediaRecoveryMidIncrementalGC destroys the disk with an incremental
// stable collection in flight and rebuilds the heap from the log alone: the
// flip record (forced first; unforced it would be lost and nothing resume)
// must bring the collection back, the resumed collection must finish
// without corrupting the committed graph, and the heap must survive an
// ordinary crash after it. Active is checked before any read, because a
// trap-driven scan can finish under Verify's reads.
func TestMediaRecoveryMidIncrementalGC(t *testing.T) {
	for _, mode := range []gc.Mode{gc.EllisTrapDriven, gc.Concurrent} {
		t.Run(mode.String(), func(t *testing.T) {
			c := cfg()
			c.StableGC = mode
			c.ManualScan = true // the test, not a goroutine, paces a concurrent scan
			d := New(c, 7)
			for i := 0; i < 60; i++ {
				if err := d.Step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			hp := d.Heap()
			// Evacuate into the stable area (a stable collection scans only
			// stable objects), then leave one collection in flight.
			if _, err := hp.CollectVolatile(); err != nil {
				t.Fatal(err)
			}
			hp.StartStableCollection()
			hp.StepStable()
			if !hp.StableCollector().Active() {
				t.Fatal("collection finished in one step; cannot crash mid-collection")
			}
			hp.Log().ForceAll()
			rec, err := d.mediaFailure()
			if err != nil {
				t.Fatalf("media recover: %v", err)
			}
			if !rec.StableCollector().Active() {
				t.Fatal("the interrupted collection was not resumed by media recovery")
			}
			if err := d.adopt(rec); err != nil {
				t.Fatalf("post-media-recovery: %v", err)
			}
			for rec.StableCollector().Active() {
				rec.StepStable()
			}
			if err := d.Verify(); err != nil {
				t.Fatalf("verify after finishing the resumed collection: %v", err)
			}
			if err := d.CrashAndRecover(0.5, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSoakLongRun is the endurance check: thousands of operations with
// periodic crashes, truncation, and media recovery mixed in. Skipped in
// -short mode.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for seed := int64(100); seed < 103; seed++ {
		d := New(cfg(), seed)
		for round := 0; round < 8; round++ {
			for i := 0; i < 150; i++ {
				if err := d.Step(); err != nil {
					t.Fatalf("seed %d round %d step %d: %v", seed, round, i, err)
				}
			}
			switch round % 3 {
			case 0:
				if err := d.CrashAndRecover(0.5, round%2 == 0); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			case 1:
				d.Heap().StartStableCollection()
				d.Heap().StepStable()
				if err := d.CrashAndRecover(0.25, false); err != nil {
					t.Fatalf("seed %d round %d midgc: %v", seed, round, err)
				}
			case 2:
				d.Heap().Checkpoint()
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
				d.Heap().TruncateLog()
				if err := d.Verify(); err != nil {
					t.Fatalf("seed %d round %d post-truncate: %v", seed, round, err)
				}
			}
		}
	}
}

// TestDriverOverDir drives the harness over a heap on real files: every
// crash abandons the devices and reopens them over the directory, the twin
// recovers from clones of its backings — which must be gone from the
// directory afterwards, with the process's descriptor count flat — and
// media recovery rebuilds the heap onto the directory's destroyed page
// store from its log.
func TestDriverOverDir(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	c := cfg()
	c.Dir = filepath.Join(t.TempDir(), "heap")
	// Segments no checkpoint fills, so truncation frees nothing and media
	// recovery has the full log it needs.
	c.LogSegBytes = 1 << 20
	d := New(c, 7)
	var fds int
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			if err := d.Step(); err != nil {
				t.Fatalf("round %d step %d: %v", round, i, err)
			}
		}
		if round%2 == 1 {
			d.Heap().StartStableCollection()
			d.Heap().StepStable()
		}
		if err := d.CrashAndRecover(0.5, round != 0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, clones := range []string{filepath.Join(c.Dir, "clones"), filepath.Join(c.Dir, "log", "clones")} {
			if _, err := os.Stat(clones); !os.IsNotExist(err) {
				t.Fatalf("round %d: twin copy left behind in %s (stat err %v)", round, clones, err)
			}
		}
		if round == 1 {
			fds = openFDs()
		}
	}
	if got := openFDs(); got > fds+2 {
		t.Errorf("open fds grew from %d to %d over 4 crash/recover rounds with twins", fds, got)
	}
	if err := d.MediaRecover(); err != nil {
		t.Fatalf("media recovery over files: %v", err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("after media recovery over files: %v", err)
	}
	d.Heap().Close()
}
