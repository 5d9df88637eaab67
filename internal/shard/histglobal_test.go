package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stableheap/internal/core"
	"stableheap/internal/histcheck"
)

// TestHistGlobalSerial is the global-serializability rotation: randomized
// concurrent bank-style workloads over a partitioned cluster, with
// transfers spanning two and three partitions committing through 2PC,
// read-only audits spanning every partition, allocation churn, and the
// collectors flipping areas underneath. Every round's per-partition
// histories are merged by histcheck.CheckGlobal, which fails on any
// cross-partition DSG cycle (an interleaving no serial global order
// explains) or any 2PC transaction with a split outcome. Committed audits
// double as a live atomicity probe: a globally serializable execution can
// never show them a sum other than the invariant total.
//
// Rounds rotate the partition count {2,3,4} and the per-partition
// configuration (nursery, concurrent volatile collector), so the Relocate
// rebase stays partition-scoped under real object motion.
func TestHistGlobalSerial(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 25
	}
	for round := 0; round < rounds; round++ {
		runGlobalHistoryRound(t, round)
		if t.Failed() {
			return
		}
	}
}

func runGlobalHistoryRound(t *testing.T, round int) {
	const slots = 8
	const initial = 100

	part := testConfig()
	// Cross-partition deadlocks are invisible to any one heap's detector;
	// the finite lock wait is the distributed backstop (DESIGN.md §16).
	part.LockWait = 2 * time.Millisecond
	switch round % 3 {
	case 1:
		part.NurseryBytes = 2 << 10
	case 2:
		part.ConcurrentVGC = true
	}
	cfg := Config{Partitions: 2 + round%3, Part: part}
	cl, _, err := openCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for slot := 0; slot < slots; slot++ {
		setCounter(t, cl, slot, initial)
	}
	// Partition → slots map for picking genuinely cross-partition spans.
	bySlotPart := make(map[int][]int)
	for slot := 0; slot < slots; slot++ {
		p := cl.PartitionOf(slot)
		bySlotPart[p] = append(bySlotPart[p], slot)
	}
	var partsWithSlots []int
	for p := 0; p < cl.Partitions(); p++ {
		if len(bySlotPart[p]) > 0 {
			partsWithSlots = append(partsWithSlots, p)
		}
	}

	cl.SetHistoryRecorders()

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
					err = globalAuditTx(cl, slots, initial)
				case 1:
					err = churnTx(cl, rng)
				default:
					err = spanningTransferTx(cl, rng, bySlotPart, partsWithSlots)
				}
				if err != nil && !errors.Is(err, core.ErrConflict) {
					errs <- fmt.Errorf("round %d worker %d: %w", round, w, err)
					return
				}
			}
		}(w)
	}

	// The driver keeps the collectors busy so histories span flips and
	// object moves on every partition.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for iter := 0; ; iter++ {
		if _, err := cl.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		if iter%4 == 0 {
			cl.CollectStable()
		}
		select {
		case <-done:
		default:
			time.Sleep(100 * time.Microsecond)
			continue
		}
		break
	}

	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Money conservation across the whole cluster.
	var sum uint64
	for slot := 0; slot < slots; slot++ {
		sum += readCounter(t, cl, slot)
	}
	if sum != slots*initial {
		t.Fatalf("round %d: money not conserved: total %d, want %d", round, sum, slots*initial)
	}

	if err := histcheck.CheckGlobal(cl.GlobalHistories()); err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
}

// spanningTransferTx moves money between 2 or 3 counters on distinct
// partitions — a genuine 2PC commit whenever more than one partition holds
// a picked slot.
func spanningTransferTx(cl *Cluster, rng *rand.Rand, bySlotPart map[int][]int, parts []int) error {
	span := 2 + rng.Intn(2)
	if span > len(parts) {
		span = len(parts)
	}
	perm := rng.Perm(len(parts))
	picked := make([]int, 0, span)
	for _, pi := range perm[:span] {
		ss := bySlotPart[parts[pi]]
		picked = append(picked, ss[rng.Intn(len(ss))])
	}

	tx := cl.Begin()
	abort := func(err error) error {
		_ = tx.Abort()
		return err
	}
	refs := make([]Ref, len(picked))
	vals := make([]uint64, len(picked))
	for i, slot := range picked {
		r, err := tx.Root(slot)
		if err != nil {
			return abort(err)
		}
		refs[i] = r
		v, err := tx.Data(r, 0)
		if err != nil {
			return abort(err)
		}
		vals[i] = v
	}
	amt := uint64(1 + rng.Intn(5))
	// Debit the first counter once per recipient, credit each recipient.
	if err := tx.SetData(refs[0], 0, vals[0]-amt*uint64(len(picked)-1)); err != nil {
		return abort(err)
	}
	for i := 1; i < len(picked); i++ {
		if err := tx.SetData(refs[i], 0, vals[i]+amt); err != nil {
			return abort(err)
		}
	}
	return tx.Commit()
}

// globalAuditTx reads every counter in one cluster transaction; if the
// commit succeeds the snapshot was serializable, so the sum must equal the
// invariant total.
func globalAuditTx(cl *Cluster, slots int, initial uint64) error {
	tx := cl.Begin()
	abort := func(err error) error {
		_ = tx.Abort()
		return err
	}
	var sum uint64
	for slot := 0; slot < slots; slot++ {
		r, err := tx.Root(slot)
		if err != nil {
			return abort(err)
		}
		v, err := tx.Data(r, 0)
		if err != nil {
			return abort(err)
		}
		sum += v
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if sum != uint64(slots)*initial {
		return fmt.Errorf("committed audit saw unserializable total %d, want %d", sum, uint64(slots)*initial)
	}
	return nil
}

// churnTx allocates short-lived garbage on a random partition so the
// collectors have something to reclaim mid-history.
func churnTx(cl *Cluster, rng *rand.Rand) error {
	tx := cl.Begin()
	abort := func(err error) error {
		_ = tx.Abort()
		return err
	}
	part := rng.Intn(cl.Partitions())
	prev := Ref{}
	for i := 0; i < 4; i++ {
		r, err := tx.AllocAt(part, 2, 1, 1)
		if err != nil {
			return abort(err)
		}
		if err := tx.SetData(r, 0, uint64(i)); err != nil {
			return abort(err)
		}
		if !prev.IsNil() {
			if err := tx.SetPtr(r, 0, prev); err != nil {
				return abort(err)
			}
		}
		prev = r
	}
	return tx.Commit()
}
