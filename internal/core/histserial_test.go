package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"stableheap/internal/gc"
	"stableheap/internal/histcheck"
)

// TestConcurrentHistoriesSerializable runs many short randomized
// concurrent workloads — bank-style transfers and read-only audits over a
// handful of shared counters — with the stable and volatile collectors
// flipping areas underneath, and checks every resulting history for
// conflict serializability with the histcheck DSG cycle checker. It is
// the acceptance test for the sharded action latch: any interleaving the
// latch admits that two-phase locking cannot serialize shows up here as a
// cycle, printed with the offending history.
//
// Each round uses a fresh heap and recorder so histories stay small and
// a failure names its round and seed for replay. The configuration cycles
// through latch shard counts {default, 1, 8}, an explicit nursery, the
// mostly-concurrent volatile collector (alone and with 8 shards), the
// mostly-concurrent stable collector (alone and combined with the volatile
// one plus a nursery), and the nursery-disabled legacy layout, so the
// generational write barrier, both SATB deletion barriers and both
// read-barrier transports all run under the checker. Workers mix in
// volatile allocation churn so minor collections and concurrent scans
// actually fire mid-history; in the concurrent-stable rounds the driver
// flips the stable area and runs volatile collections while the stable
// scan is still in flight, so transactions span concurrent stable flips
// and high-end evacuations mid-transaction.
func TestConcurrentHistoriesSerializable(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 25
	}
	for round := 0; round < rounds; round++ {
		runHistoryRound(t, round)
		if t.Failed() {
			return
		}
	}
}

func runHistoryRound(t *testing.T, round int) {
	const counters = 4
	const initial = 100

	cfg := concCfg()
	shards := latchShards
	switch round % 8 {
	case 1:
		shards = 1 // single shard: every logged write serialized
	case 2:
		shards = 8 // high collision rate across pages
	case 3:
		cfg.NurseryBytes = 2 << 10 // small explicit nursery: frequent minors
	case 4:
		cfg.ConcurrentVGC = true // scans on the collector goroutine
	case 5:
		cfg.ConcurrentVGC = true
		shards = 8
	case 6:
		cfg.StableGC = gc.Concurrent // stable scans on the collector goroutine
	case 7:
		cfg.StableGC = gc.Concurrent // both concurrent collectors + nursery
		cfg.ConcurrentVGC = true
		cfg.NurseryBytes = 2 << 10
	}
	hp := openMem(cfg)
	defer hp.Close()
	restripe(hp, shards)

	tr := hp.Begin()
	for i := 0; i < counters; i++ {
		c, err := tr.Alloc(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(c, 0, initial); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetRoot(i, c); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}

	rec := histcheck.NewRecorder()
	hp.SetHistoryRecorder(rec)

	workers := 2 + round%3
	const txPerWorker = 6
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(round)*1000 + int64(w)))
			for i := 0; i < txPerWorker; i++ {
				var err error
				switch rng.Intn(4) {
				case 0:
					err = auditTx(hp, rng)
				case 1:
					err = churnTx(hp, rng, w)
				default:
					err = transferTx(hp, rng)
				}
				if err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}

	// The main goroutine is the collector: both areas keep flipping until
	// the workers finish, so histories span collector flips and object
	// moves (the recorder's Relocate rebasing is live, not decorative).
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		if os.Getenv("HIST_NO_GC") == "" {
			hp.StartStableCollection()
			if cfg.StableGC == gc.Concurrent {
				// The flip leaves a concurrent scan in flight: run a
				// volatile collection underneath it (newly stable objects
				// evacuate into the scan's to-space high end), then retire
				// it so the next iteration can flip again.
				if _, err := hp.CollectVolatile(); err != nil {
					t.Fatal(err)
				}
				hp.FinishStableScan()
			} else {
				for hp.StepStable() {
				}
			}
			if _, err := hp.CollectVolatile(); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-done:
			running = false
		default:
		}
	}
	select {
	case err := <-errs:
		tr3 := hp.Begin()
		var vals []uint64
		var resum uint64
		for i := 0; i < counters; i++ {
			c, _ := tr3.Root(i)
			v, _ := tr3.Data(c, 0)
			vals = append(vals, v)
			resum += v
		}
		tr3.Abort()
		t.Fatalf("round %d (shards=%d workers=%d): worker error: %v; post-quiesce counters=%v sum=%d", round, shards, workers, err, vals, resum)
	default:
	}

	if err := histcheck.Check(rec.History()); err != nil {
		t.Fatalf("round %d (shards=%d workers=%d): %v", round, shards, workers, err)
	}

	// Money conservation: transfers move value between counters, so any
	// lost update or phantom shows up as a wrong total.
	tr2 := hp.Begin()
	defer tr2.Abort()
	var sum uint64
	for i := 0; i < counters; i++ {
		c, err := tr2.Root(i)
		if err != nil {
			t.Fatal(err)
		}
		v, err := tr2.Data(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if sum != counters*initial {
		t.Fatalf("round %d: counters sum to %d, want %d (lost or phantom transfer)", round, sum, counters*initial)
	}
}

// TestHistRecorderFollowsConcurrentStableMoves pins the recorder's Relocate
// rebasing for concurrent-stable-scan evacuations: a version installed at
// an object's pre-flip address must be the version a later transaction
// observes at the post-evacuation address, i.e. the wr-dependency edge
// survives the move. Without the rebase the two addresses would be
// distinct recorder variables and the edge would vanish.
func TestHistRecorderFollowsConcurrentStableMoves(t *testing.T) {
	cfg := concSGCCfg()
	hp := openMem(cfg)
	defer hp.Close()

	tr := hp.Begin()
	c, err := tr.Alloc(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetData(c, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(0, c); err != nil {
		t.Fatal(err)
	}
	commit(t, tr)
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatal(err)
	}

	rec := histcheck.NewRecorder()
	hp.SetHistoryRecorder(rec)

	// Install a version at the pre-flip address.
	trA := hp.Begin()
	cA, err := trA.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := trA.SetData(cA, 0, 6); err != nil {
		t.Fatal(err)
	}
	idA := trA.ID()
	commit(t, trA)

	// Evacuate it: flip concurrently and drive the scan to completion
	// (the counter's Relocate fires from a gate-held scan quantum).
	hp.StartStableCollection()
	for hp.StepStableScan() {
	}

	// Observe it at the post-evacuation address, mid-collection.
	trB := hp.Begin()
	cB, err := trB.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := trB.Data(cB, 0)
	if err != nil {
		t.Fatal(err)
	}
	idB := trB.ID()
	commit(t, trB)
	hp.FinishStableScan()

	if v != 6 {
		t.Fatalf("read %d through the moved object, want 6", v)
	}
	hist := rec.History()
	found := false
	for _, op := range hist.Ops {
		if op.Tx == idB && op.Kind == histcheck.OpRead && op.FromTx == idA {
			found = true
		}
	}
	if !found {
		t.Fatalf("reader's dependency on the pre-move writer lost across the evacuation:\n%v", hist)
	}
	if err := histcheck.Check(hist); err != nil {
		t.Fatal(err)
	}
}

// transferTx moves a random amount between two random counters —
// read-modify-write on both sides, lock order randomized, so rounds
// exercise lost-update hazards and real deadlocks (detector victims
// surface as ErrConflict and are tolerated by the caller).
func transferTx(hp *Heap, rng *rand.Rand) error {
	const counters = 4
	from := rng.Intn(counters)
	to := (from + 1 + rng.Intn(counters-1)) % counters
	amount := uint64(1 + rng.Intn(5))

	tr := hp.Begin()
	cf, err := tr.Root(from)
	if err != nil {
		tr.Abort()
		return err
	}
	ct, err := tr.Root(to)
	if err != nil {
		tr.Abort()
		return err
	}
	vf, err := tr.Data(cf, 0)
	if err != nil {
		tr.Abort()
		return err
	}
	if vf < amount {
		tr.Abort()
		return nil
	}
	vt, err := tr.Data(ct, 0)
	if err != nil {
		tr.Abort()
		return err
	}
	if err := tr.SetData(cf, 0, vf-amount); err != nil {
		tr.Abort()
		return err
	}
	if err := tr.SetData(ct, 0, vt+amount); err != nil {
		tr.Abort()
		return err
	}
	if os.Getenv("HIST_NO_ABORT") == "" && rng.Intn(4) == 0 {
		tr.Abort() // exercise undo + the recorder's version pop
		return nil
	}
	return tr.Commit()
}

// churnTx allocates a short chain of volatile objects and parks it in the
// worker's private volatile root slot, overwriting last round's chain. The
// allocations land in the nursery (when one is configured), the root-slot
// overwrite fires the deletion barrier during a concurrent scan, and the
// orphaned previous chain becomes the garbage that minor and concurrent
// collections exist to reclaim. The chain touches no shared counters, so
// it cannot perturb serializability of the recorded history.
func churnTx(hp *Heap, rng *rand.Rand, w int) error {
	const counters = 4
	tr := hp.Begin()
	var head *Ref
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		node, err := tr.Alloc(2, 1, 2)
		if err != nil {
			tr.Abort()
			return err
		}
		if err := tr.SetData(node, 0, uint64(w)<<16|uint64(i)); err != nil {
			tr.Abort()
			return err
		}
		if err := tr.SetPtr(node, 0, head); err != nil {
			tr.Abort()
			return err
		}
		head = node
	}
	if err := tr.SetVolRoot(counters+w, head); err != nil {
		tr.Abort()
		return err
	}
	if rng.Intn(4) == 0 {
		tr.Abort() // exercise volatile undo under the barriers
		return nil
	}
	return tr.Commit()
}

// auditTx reads every counter in one transaction and checks conservation
// at commit: under two-phase locking the read set is a serializable
// snapshot, so the total must be exact.
func auditTx(hp *Heap, rng *rand.Rand) error {
	const counters = 4
	const initial = 100
	tr := hp.Begin()
	var sum uint64
	for _, i := range rng.Perm(counters) {
		c, err := tr.Root(i)
		if err != nil {
			tr.Abort()
			return err
		}
		v, err := tr.Data(c, 0)
		if err != nil {
			tr.Abort()
			return err
		}
		sum += v
	}
	if err := tr.Commit(); err != nil {
		return err
	}
	if sum != counters*initial {
		return fmt.Errorf("audit tx %d read an unserializable total %d", tr.ID(), sum)
	}
	return nil
}
