package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"stableheap/internal/core"
	"stableheap/internal/faultfs"
	"stableheap/internal/storage"
)

// scalingForceDelay is the simulated synchronous-force latency (a
// faultfs.Slow backing) that makes E13, E20 and E23 meaningful on any
// machine: the measured scaling comes from concurrent transactions
// overlapping their force waits, not from core count. A few hundred
// microseconds sits between a capacitor-backed NVMe (~20µs) and a 15k-RPM
// disk with a write cache (~1ms).
const scalingForceDelay = 250 * time.Microsecond

// slowLog returns an empty memory backing whose every sync, so every log
// force over it, takes scalingForceDelay.
func slowLog() storage.Backing {
	return faultfs.Slow(storage.NewMemBacking(), scalingForceDelay)
}

// scalingConfig is the heap configuration the scaling benches share.
func scalingConfig() core.Config {
	cfg := core.Config{
		PageSize: 1024, StableWords: 64 * 1024, VolatileWords: 16 * 1024,
		LockWait: 5 * time.Millisecond,
	}
	return cfg.WithDefaults()
}

// scalingMeasure runs g goroutines, each committing read-modify-write
// transactions on a counter of its own (no conflicts possible), for the
// given duration and returns the committed transactions and the device
// forces the window took.
func scalingMeasure(g int, duration time.Duration) (committed, forces int64) {
	return scalingMeasureCfg(scalingConfig(), g, duration)
}

// scalingMeasureCfg is scalingMeasure over an explicit configuration —
// E20 toggles the flight recorder on the otherwise identical workload.
func scalingMeasureCfg(cfg core.Config, g int, duration time.Duration) (committed, forces int64) {
	hp, err := core.Open(cfg, storage.NewMemBacking(), slowLog())
	if err != nil {
		panic(err)
	}
	defer hp.Close()
	_, logDev := hp.Devices()

	tr := hp.Begin()
	for i := 0; i < g; i++ {
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
			for !stop.Load() {
				tr := hp.Begin()
				c, err := tr.Root(w)
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

	return ok.Load(), logDev.Stats().Forces - forces0
}
