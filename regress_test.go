package stableheap_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stableheap"
	"stableheap/internal/storage"
	"stableheap/internal/word"
	"stableheap/internal/workload"
)

// Regression tests for two collector defects found by running the OO7 mix
// under real mutator load (ROADMAP item 1(e)). Both were collectors
// rewriting — or failing to find — pointer slots inside logically-stable
// objects that still live at an aged-space address.

// A mid-transaction minor promotes a fresh composite to the aged space
// before commit makes it stable; the logged SetPtr that then stores a
// nursery atom into it bypasses the volatile write barrier, so without a
// nursery remembered-set entry the next minor resets the nursery under the
// slot.
func TestNurseryMinorAfterLoggedStoreIntoAgedObject(t *testing.T) {
	h := stableheap.Open(stableheap.DefaultConfig())
	defer h.Close()
	rng := rand.New(rand.NewSource(7))
	o, err := workload.BuildOO7(h, 0, workload.OO7Config{Assemblies: 16, Composites: 16, AtomsPerComp: 6, DocWords: 4, ConnPerAtom: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := o.ReplaceComposite(rng); err != nil {
			t.Fatalf("replace %d: %v", i, err)
		}
		if err := o.Check(); err != nil {
			t.Fatalf("after replace %d (%d minors): %v", i, h.Metrics().Counter("vgc_nursery_minor_total"), err)
		}
	}
}

// retryConflict runs op until it returns anything but ErrConflict (a lock
// timeout or deadlock victim), backing off as an application would.
func retryConflict(op func() error) error {
	for try := 1; ; try++ {
		err := op()
		if !errors.Is(err, stableheap.ErrConflict) || try == 8 {
			return err
		}
		time.Sleep(time.Duration(try) * 200 * time.Microsecond)
	}
}

// Two clients churn composites while minors and stable flips rewrite
// pointer slots of logically-stable objects still in the aged space. Those
// rewrites must reach the log: recovery rebuilds such an object from its
// base record plus logged updates, and an unlogged fix leaves the rebuilt
// image pointing into the reset nursery or the freed stable from-space.
func TestConcurrentChurnCrashRecover(t *testing.T) {
	shape := workload.OO7Config{Assemblies: 16, Composites: 16, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := stableheap.DefaultConfig()
			cfg.StableWords = 96 << 10
			cfg.VolatileWords = 64 << 10
			cfg.LockWait = 50 * time.Millisecond
			h := stableheap.Open(cfg)
			o, err := workload.BuildOO7(h, 0, shape, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for c := range errs {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(c)))
					for i := 0; i < 500; i++ {
						op := o.UpdateT2
						if rng.Intn(3) < 2 {
							op = o.ReplaceComposite
						}
						if err := retryConflict(func() error { return op(rng) }); err != nil {
							errs[c] = fmt.Errorf("client %d op %d: %w", c, i, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			disk, log := h.Crash()
			h2, err := stableheap.Recover(cfg, disk, log)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer h2.Close()
			o.Reattach(h2)
			if err := o.Check(); err != nil {
				t.Fatalf("after recovery: %v", err)
			}
		})
	}
}

// The commit path moved from "force under the stop latch" to "park on the
// shared force outside it" (ISSUE 16). With one goroutine nothing overlaps,
// so that must be invisible: the same records at the same LSNs, and exactly
// one device force per commit. The digest covers every frame of this
// seeded OO7 run with its LSN. It was taken at commit f77d9b2 (the last with
// tx.Manager.Commit) and regenerated twice since: when a volatile move cycle
// began logging one SFix record per page for all its moved objects instead
// of one per object, and when tracking and moves began logging one base and
// one V2SCopy record per run of objects that lie end to end (V2SCopyRec
// gained More, the run's further sources), and when the begin record was
// retired: a transaction's chain starts at its first logged change, and a
// read-only one (the TraverseT1 passes here) logs nothing, and when a move
// cycle became one V2SCopy record carrying its moves, their translated
// slots and the fixes of the slots that named them, and when the commit
// record became a committed transaction's last: no end record follows it,
// and no complete record closes a tracking batch. It must change again
// only with a change that means to alter what the heap logs. No checkpoint is taken: a
// checkpoint record lists the LS set in map order.
func TestSingleGoroutineWALUnchanged(t *testing.T) {
	const want = "44ec41db999b6adb489b6120310c7db78411daf525da4dea593c0ec8e405667d"
	h := stableheap.Open(stableheap.DefaultConfig())
	defer h.Close()
	rng := rand.New(rand.NewSource(16))
	o, err := workload.BuildOO7(h, 0, workload.OO7Config{Assemblies: 8, Composites: 12, AtomsPerComp: 5, DocWords: 4, ConnPerAtom: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		switch i % 4 {
		case 0:
			err = o.ReplaceComposite(rng)
		case 1, 2:
			err = o.UpdateT2(rng)
		default:
			_, err = o.TraverseT1()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	dev := h.Log().Device()
	sum := sha256.New()
	storage.Scan(dev, 1, false, func(lsn word.LSN, frame []byte) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(lsn))
		sum.Write(b[:])
		sum.Write(frame)
		return true
	})
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("WAL digest %s, want %s", got, want)
	}
	// Format's bootstrap commit rides the force that publishes its
	// checkpoint, so every commit, that one included, costs one force.
	forces, commits := dev.Stats().Forces, h.Metrics().Counter("tx_committed_total")
	if forces != commits {
		t.Errorf("%d device forces for %d commits, want one each", forces, commits)
	}
}
