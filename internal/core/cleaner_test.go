package core

import (
	"fmt"
	"testing"
)

// The page cleaner (vm.Store.Clean, Heap.clean): a finished collection's
// to-space and a checkpoint's pages are owed, not written in the heap
// stop, and committers write them after their forces.

// cleanerList builds a list over enough 256-byte pages that a finished
// collection owes more than one cleaner quantum, and moves it into the
// stable area.
func cleanerList(t *testing.T, hp *Heap) {
	t.Helper()
	buildList(t, hp, 0, 600, 1000)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
}

// nudge commits one small update: a force, then a cleaner quantum.
func nudge(t *testing.T, hp *Heap, v uint64) {
	t.Helper()
	tr := hp.Begin()
	obj, err := tr.Alloc(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(obj, 0, v); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(1, obj); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
}

// TestFinishOwesToSpace: the step that finishes a collection writes no
// page; the to-space is owed, and the committers after it write it in
// runs, one quantum each, without a log force.
func TestFinishOwesToSpace(t *testing.T) {
	hp := openMem(smallCfg())
	defer hp.Close()
	cleanerList(t, hp)
	before := hp.Metrics()
	hp.CollectStable()
	after := hp.Metrics()
	for _, name := range []string{"cache_flushes_total", "cache_stop_writes_total"} {
		if d := after.Counter(name) - before.Counter(name); d != 0 {
			t.Fatalf("the collection wrote %d pages (%s) in its stop", d, name)
		}
	}
	owed := hp.Mem().Owed()
	if owed <= cleanQuantumPages {
		t.Fatalf("%d pages owed; the test needs more than one quantum (%d)", owed, cleanQuantumPages)
	}
	nudge(t, hp, 1)
	if got := hp.Mem().Owed(); got < owed-cleanQuantumPages {
		t.Fatalf("one commit cleaned %d pages, want at most a quantum of %d", owed-got, cleanQuantumPages)
	}
	for i := 0; hp.Mem().Owed() > 0; i++ {
		if i > owed {
			t.Fatalf("%d pages still owed after %d commits", hp.Mem().Owed(), i)
		}
		nudge(t, hp, uint64(i))
	}
	m := hp.Metrics()
	if d := m.Counter("wal_constraint_forces_total") - before.Counter("wal_constraint_forces_total"); d != 0 {
		t.Fatalf("write-back forced the log %d times", d)
	}
	if d := m.Counter("cache_cleaned_pages_total") - before.Counter("cache_cleaned_pages_total"); d < int64(owed) {
		t.Fatalf("the cleaner wrote %d pages of the %d owed", d, owed)
	}
	checkList(t, hp, 0, 600, 1000)
}

// TestFlipDrainsOwedToSpace: a flip that finds the last collection's
// to-space still owed — no commit ran the cleaner — writes it before it
// copies into the space that collection freed (Fig. 4.6's gate), and a
// crash in the new collection recovers.
func TestFlipDrainsOwedToSpace(t *testing.T) {
	cfg := smallCfg()
	hp := openMem(cfg)
	cleanerList(t, hp)
	hp.CollectStable()
	owed := hp.Mem().Owed()
	if owed == 0 {
		t.Fatal("the finished collection owes nothing")
	}
	stops := hp.Metrics().Counter("cache_stop_writes_total")
	hp.StartStableCollection()
	if got := hp.Mem().Owed(); got != 0 {
		t.Fatalf("%d pages still owed after the flip", got)
	}
	if d := hp.Metrics().Counter("cache_stop_writes_total") - stops; d != int64(owed) {
		t.Fatalf("the flip wrote %d pages, want the %d owed", d, owed)
	}
	hp.StepStable()
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()
	checkList(t, hp2, 0, 600, 1000)
}

// TestCrashBetweenGCEndAndClean: a crash after a collection's GCEnd with
// none, some or all of its to-space written recovers the committed list,
// and so does a second crash right after that recovery, before any commit
// has cleaned: a checkpoint taken while a to-space is owed — the one
// recovery closes with included, or one taken in the window, whose
// promotion the commit after it makes — lists the freed from-space's
// dirty pages, so a recovery from it can replay the collection's copies.
func TestCrashBetweenGCEndAndClean(t *testing.T) {
	for _, c := range []struct {
		commits    int
		checkpoint bool
	}{{0, false}, {1, false}, {2, false}, {40, false}, {1, true}} {
		t.Run(fmt.Sprintf("commits%d-checkpoint%v", c.commits, c.checkpoint), func(t *testing.T) {
			cfg := smallCfg()
			hp := openMem(cfg)
			cleanerList(t, hp)
			hp.CollectStable()
			if c.checkpoint {
				hp.Checkpoint()
			}
			for i := 0; i < c.commits; i++ {
				nudge(t, hp, uint64(i))
			}
			for round := 0; round < 2; round++ {
				disk, logDev := hp.Crash()
				var err error
				if hp, err = reopen(cfg, disk, logDev); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				checkList(t, hp, 0, 600, 1000)
			}
			hp.Close()
		})
	}
}

// TestCheckpointPromotedWhileOwed: a checkpoint hands its dirty pages to
// the cleaner; the next commit's force promotes it while most of them are
// still owed, and a crash then recovers from it.
func TestCheckpointPromotedWhileOwed(t *testing.T) {
	cfg := smallCfg()
	hp := openMem(cfg)
	cleanerList(t, hp)
	cp := hp.Checkpoint()
	owed := hp.Mem().Owed()
	if owed <= cleanQuantumPages {
		t.Fatalf("%d pages owed; the test needs more than one quantum (%d)", owed, cleanQuantumPages)
	}
	nudge(t, hp, 7) // promotes the checkpoint, then cleans one quantum
	if got := hp.disk.Master().CheckpointLSN; got != cp {
		t.Fatalf("master names %d, want the checkpoint at %d", got, cp)
	}
	if hp.Mem().Owed() == 0 {
		t.Fatal("one commit cleaned everything the checkpoint owed")
	}
	disk, logDev := hp.Crash()
	hp2, err := reopen(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	defer hp2.Close()
	checkList(t, hp2, 0, 600, 1000)
}
