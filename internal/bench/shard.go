package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stableheap/internal/shard"
	"stableheap/internal/storage"
)

// shardMeasure runs g goroutines against a cluster of the given partition
// count for the duration. Each transaction is a read-modify-write on one
// counter, except that with probability crossFrac it is instead a
// two-slot transfer between distinct partitions — a full 2PC commit
// (forced prepare per branch + forced coordinator decision). Every
// partition log and the coordinator's decision log pay scalingForceDelay
// per force, so the measured shape is force-overlap, not CPU.
func shardMeasure(partitions, g int, duration time.Duration, counters int, crossFrac float64) (committed, twopc int64, err error) {
	// The scaling kernel's config per partition, so the single-partition
	// cluster row is directly comparable to the single-heap baseline.
	part := scalingConfig()
	parts := make([]shard.Backings, partitions)
	for i := range parts {
		parts[i] = shard.Backings{Disk: storage.NewMemBacking(), Log: slowLog()}
	}
	coord := shard.Backings{Disk: storage.NewMemBacking(), Log: slowLog()}
	cl, err := shard.Open(shard.Config{Partitions: partitions, Part: part}, parts, coord)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()

	partOf := make([]int, counters)
	for slot := 0; slot < counters; slot++ {
		partOf[slot] = cl.PartitionOf(slot)
		tx := cl.Begin()
		c, err := tx.AllocFor(slot, 1, 0, 1)
		if err != nil {
			return 0, 0, err
		}
		if err := tx.SetData(c, 0, 1000); err != nil {
			return 0, 0, err
		}
		if err := tx.SetRoot(slot, c); err != nil {
			return 0, 0, err
		}
		if err := tx.Commit(); err != nil {
			return 0, 0, err
		}
	}
	if _, err := cl.CollectVolatile(); err != nil {
		return 0, 0, err
	}

	rmw := func(tx *shard.Tx, slot int) error {
		c, err := tx.Root(slot)
		if err != nil {
			return err
		}
		v, err := tx.Data(c, 0)
		if err != nil {
			return err
		}
		return tx.SetData(c, 0, v+1)
	}

	var stop atomic.Bool
	var ok atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for !stop.Load() {
				tx := cl.Begin()
				var err error
				if rng.Float64() < crossFrac && partitions > 1 {
					// Cross-partition transfer: two slots on distinct
					// partitions, debit one, credit the other.
					a := rng.Intn(counters)
					b := rng.Intn(counters)
					for partOf[b] == partOf[a] {
						b = rng.Intn(counters)
					}
					if err = rmw(tx, a); err == nil {
						err = rmw(tx, b)
					}
				} else {
					// Single-partition: the worker's private counter, so
					// disjoint runs (crossFrac 0) never conflict.
					err = rmw(tx, w%counters)
				}
				if err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() == nil {
					ok.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	return ok.Load(), cl.Metrics().Counter("shard_2pc_commits_total"), nil
}

// E23Shard measures cluster throughput as partitions are added, on three
// workload mixes:
//
//   - disjoint: every transaction stays on one partition (each worker owns
//     a private counter) — independent logs, latches and commit forces;
//   - cross 5% / cross 20%: that fraction of transactions transfer between
//     two partitions and commit through 2PC, paying one forced prepare per
//     branch plus the forced coordinator decision.
//
// The single-heap row is the disjoint scaling kernel on the same force delay:
// the cost of the cluster API itself is partitions=1 vs that baseline. The
// 2PC tax dominates the cross mixes — each distributed commit serializes
// two extra forced writes — so the cross curves sit at or below the
// single-partition line: the table is the quantitative argument for
// routing related roots to the same partition.
func E23Shard() Table {
	t := Table{
		ID:     "E23",
		Title:  "partitioned multi-heap scaling and the cross-partition 2PC tax",
		Claim:  "every cross-partition transaction pays two extra forced writes (prepare per branch + coordinator decision), so a 20% cross mix costs far more than partitioning returns; partition-local work is latency-bound and flat — one log's shared force already retires half its committers per cycle — so placement locality is the whole game",
		Header: []string{"workload", "partitions", "goroutines", "tx/sec", "2pc tx/sec", "speedup"},
	}
	const (
		duration = 250 * time.Millisecond
		g        = 32
		counters = 32
	)

	base, _ := scalingMeasure(g, duration)
	baseRate := float64(base) / duration.Seconds()
	t.Rows = append(t.Rows, []string{
		"single heap, private counters", "-", fmt.Sprintf("%d", g),
		fmt.Sprintf("%.0f", baseRate), "-", "1.00x",
	})

	mixes := []struct {
		name string
		frac float64
	}{
		{"disjoint", 0},
		{"cross 5%", 0.05},
		{"cross 20%", 0.20},
	}
	for _, mix := range mixes {
		var mixBase float64
		for _, n := range []int{1, 2, 4, 8} {
			committed, twopc, err := shardMeasure(n, g, duration, counters, mix.frac)
			if err != nil {
				panic(err)
			}
			rate := float64(committed) / duration.Seconds()
			if n == 1 {
				mixBase = rate
			}
			speedup := "-"
			if mixBase > 0 {
				speedup = fmt.Sprintf("%.2fx", rate/mixBase)
			}
			t.Rows = append(t.Rows, []string{
				mix.name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", g),
				fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", float64(twopc)/duration.Seconds()),
				speedup,
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every partition log and the coordinator decision log pay %v per force (a faultfs.Slow backing)", scalingForceDelay),
		"cross transactions pick two slots on distinct partitions and commit via presumed-abort 2PC: forced prepare on each branch, then the forced coordinator decision",
		"at partitions=1 every transaction is single-partition (no 2PC is possible), so the three mixes converge there",
		"global serializability and crash atomicity of exactly this commit path are proven separately (TestHistGlobalSerial, shchaos -scenario 2pc)")
	return t
}
