package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stableheap/internal/core"
	"stableheap/internal/faultfs"
	"stableheap/internal/storage"
)

// scalingForceDelay is the simulated synchronous-force latency
// (faultfs.SlowLog) that makes E13, E18 and E23 meaningful on any machine:
// the measured scaling comes from concurrent transactions overlapping
// their force waits, not from core count. A few
// hundred microseconds sits between a capacitor-backed NVMe (~20µs) and a
// 15k-RPM disk with a write cache (~1ms).
const scalingForceDelay = 250 * time.Microsecond

// scalingConfig is the heap configuration the scaling benches share.
func scalingConfig() core.Config {
	cfg := core.Config{
		PageSize: 1024, StableWords: 64 * 1024, VolatileWords: 16 * 1024,
		Divided: true, Incremental: true,
		LockWait: 5 * time.Millisecond,
	}
	return cfg.WithDefaults()
}

// scalingMeasure runs g goroutines committing read-modify-write
// transactions for the given duration and returns committed transactions,
// conflicts, deadlock aborts and the device forces the window took. pick
// chooses each transaction's counter slot from the worker's private rng.
func scalingMeasure(g int, duration time.Duration, counters int, pick func(w int, rng *rand.Rand) int) (committed, conflicts, deadlocks, forces int64) {
	return scalingMeasureCfg(scalingConfig(), g, duration, counters, pick)
}

// scalingMeasureCfg is scalingMeasure over an explicit configuration —
// E20 toggles the flight recorder on the otherwise identical workload.
func scalingMeasureCfg(cfg core.Config, g int, duration time.Duration, counters int, pick func(w int, rng *rand.Rand) int) (committed, conflicts, deadlocks, forces int64) {
	logDev := faultfs.NewSlowLog(storage.NewLog(cfg.LogSegBytes), scalingForceDelay)
	hp := core.OpenOn(cfg, storage.NewDisk(cfg.PageSize), logDev)
	defer hp.Close()

	tr := hp.Begin()
	for i := 0; i < counters; i++ {
		c, err := tr.Alloc(1, 0, 1)
		if err != nil {
			panic(err)
		}
		if err := tr.SetData(c, 0, 1000); err != nil {
			panic(err)
		}
		if err := tr.SetRoot(i, c); err != nil {
			panic(err)
		}
	}
	if err := tr.Commit(); err != nil {
		panic(err)
	}
	if _, err := hp.CollectVolatile(); err != nil {
		panic(err)
	}

	forces0 := logDev.Stats().Forces
	var stop atomic.Bool
	var ok atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for !stop.Load() {
				slot := pick(w, rng)
				tr := hp.Begin()
				c, err := tr.Root(slot)
				if err != nil {
					tr.Abort()
					continue
				}
				v, err := tr.Data(c, 0)
				if err != nil {
					tr.Abort()
					continue
				}
				if err := tr.SetData(c, 0, v+1); err != nil {
					tr.Abort()
					continue
				}
				if tr.Commit() == nil {
					ok.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	ls := hp.LockStats()
	return ok.Load(), ls.Conflicts, ls.DeadlockAborts, logDev.Stats().Forces - forces0
}

// E18Scaling measures committed-transaction throughput as goroutines are
// added, on two contention profiles:
//
//   - disjoint: each goroutine owns a private counter, so transactions
//     never conflict — the pure capacity of the concurrent commit path;
//   - contended: all goroutines hammer 4 shared counters with a skewed
//     pick, so lock conflicts and deadlock-victim aborts shape the curve.
//
// Every transaction is a locked read-modify-write that commits through
// the shared force over a log whose Force costs scalingForceDelay, so
// single-goroutine throughput is force-bound (~1/delay tx/sec) and the
// headroom the sharded latch opens is visible as scaling on the disjoint
// profile.
func E18Scaling() Table {
	t := Table{
		ID:     "E18",
		Title:  "multi-core scaling of the transaction path (sharded latch + shared commit force)",
		Claim:  "disjoint transactions overlap their commit forces: throughput scales with concurrency instead of being bound by one force per transaction",
		Header: []string{"workload", "goroutines", "tx/sec", "speedup", "conflicts", "deadlock aborts"},
	}
	const duration = 250 * time.Millisecond
	gs := []int{1, 2, 4, 8, 16}

	profiles := []struct {
		name     string
		counters int
		pick     func(w int, rng *rand.Rand) int
	}{
		{"disjoint", 16, func(w int, rng *rand.Rand) int { return w }},
		{"contended", 4, func(w int, rng *rand.Rand) int {
			// Skewed: two draws, keep the smaller — slot 0 is hottest.
			a, b := rng.Intn(4), rng.Intn(4)
			if b < a {
				a = b
			}
			return a
		}},
	}
	for _, p := range profiles {
		var base float64
		for _, g := range gs {
			committed, conflicts, deadlocks, _ := scalingMeasure(g, duration, p.counters, p.pick)
			rate := float64(committed) / duration.Seconds()
			if g == 1 {
				base = rate
			}
			speedup := "-"
			if base > 0 {
				speedup = fmt.Sprintf("%.2fx", rate/base)
			}
			t.Rows = append(t.Rows, []string{
				p.name, fmt.Sprintf("%d", g), fmt.Sprintf("%.0f", rate), speedup,
				fmt.Sprintf("%d", conflicts), fmt.Sprintf("%d", deadlocks),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("log force costs %v (faultfs.SlowLog) — single-goroutine throughput is force-bound by design", scalingForceDelay),
		"disjoint goroutines write private counters (no conflicts possible); contended goroutines skew onto 4 shared counters",
		"serializability of exactly this transaction path is proven separately by the histcheck suite (internal/histcheck, TestConcurrentHistoriesSerializable)")
	return t
}
