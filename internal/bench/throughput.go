package bench

import (
	"fmt"
	"math/rand"
	"time"

	"stableheap"
	"stableheap/internal/core"
	"stableheap/internal/crashtest"
	"stableheap/internal/workload"
)

// E11Throughput is the macro-measurement: end-to-end transaction
// throughput on the bank and OO7 mixes with the collector idle, running
// incrementally, and stop-the-world — plus the worst pause the workload
// felt in each mode.
func E11Throughput() Table {
	t := Table{
		ID:     "E11",
		Title:  "transaction throughput with the collector off / incremental / stop-the-world (macro)",
		Claim:  "incremental atomic collection costs little throughput and removes the long pauses",
		Header: []string{"workload", "collector", "tx/sec", "worst GC pause", "collections"},
	}
	// The collecting rows are sized so structural churn forces repeated
	// collections of both areas — a flip once 3 Ki words of the 4 Ki
	// semispace are in use, the collector's fixed 1/4-free trigger — while
	// "idle" gets room to never collect.
	modes := []struct {
		name             string
		gc               stableheap.GCMode
		stable, volatile int
	}{
		{"idle (oversized heap)", stableheap.Ellis, 256 * 1024, 64 * 1024},
		{"incremental (ellis)", stableheap.Ellis, 4 * 1024, 2 * 1024},
		{"stop-the-world", stableheap.StopTheWorld, 4 * 1024, 2 * 1024},
	}
	for _, wl := range []string{"cad", "oo7"} {
		for _, m := range modes {
			cfg := cfgSized(m.stable, m.volatile)
			cfg.StableGC = m.gc
			h := stableheap.Open(cfg)
			rng := rand.New(rand.NewSource(11))

			var run func() int
			switch wl {
			case "cad":
				ct, err := workload.BuildCAD(h, 0, workload.CADConfig{Depth: 4, Fanout: 3, Leaf: 6}, rng)
				if err != nil {
					panic(err)
				}
				run = func() int {
					tx := 0
					for i := 0; i < 400; i++ {
						if _, err := ct.EditSession(rng, 0.2); err != nil {
							panic(err)
						}
						tx++
						if i%2 == 0 {
							if err := ct.ReplaceSubtree(rng); err != nil {
								panic(err)
							}
							tx++
						}
					}
					return tx
				}
			default:
				db, err := workload.BuildOO7(h, 0, workload.DefaultOO7(), rng)
				if err != nil {
					panic(err)
				}
				run = func() int {
					tx := 0
					for i := 0; i < 300; i++ {
						if err := db.UpdateT2(rng); err != nil {
							panic(err)
						}
						tx++
						if err := db.ReplaceComposite(rng); err != nil {
							panic(err)
						}
						tx++
					}
					return tx
				}
			}
			start := time.Now()
			committed := run()
			elapsed := time.Since(start)
			ms := h.Metrics()
			worst := ms.Hist("gc_flip_ns").MaxDur()
			if m.gc != stableheap.StopTheWorld {
				// Otherwise the whole STW collection is the pause, and the
				// flip histogram contains it all.
				worst = max(worst, ms.Hist("gc_step_ns").MaxDur(), ms.Hist("gc_trap_ns").MaxDur())
			}
			t.Rows = append(t.Rows, []string{
				wl, m.name,
				fmt.Sprintf("%.0f", float64(committed)/elapsed.Seconds()),
				dur(worst),
				fmt.Sprintf("%d stable / %d volatile", ms.Counter("gc_collections_total"), ms.Counter("vgc_collections_total")),
			})
		}
	}
	t.Notes = append(t.Notes,
		"'idle' sizes the heap so no stable collection triggers: the no-GC upper bound")
	return t
}

// E12CrashMatrix is the executable correctness argument (Ch. 6 /
// Appendix A as tests): randomized crash points, random flush subsets,
// twin-recovery determinism, across all collector modes.
func E12CrashMatrix() Table {
	t := Table{
		ID:     "E12",
		Title:  "crash-matrix soundness sweep (correctness, not performance)",
		Claim:  "committed durability, aborted invisibility and graph integrity hold at every crash point",
		Header: []string{"mode", "seeds", "steps", "crashes", "recoveries", "violations"},
	}
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"ellis incremental", core.Config{}},
		{"baker incremental", core.Config{StableGC: stableheap.Baker}},
		{"stop-the-world", core.Config{StableGC: stableheap.StopTheWorld}},
		{"all-stable (no division)", core.Config{Undivided: true}},
	}
	for _, m := range modes {
		var crashes, recoveries, steps int
		violations := 0
		const seeds = 4
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := m.cfg
			cfg.PageSize, cfg.StableWords, cfg.VolatileWords = 256, 16*1024, 4*1024
			d := crashtest.New(cfg, seed)
			if err := d.Run(100, 0.1, 0.5, true); err != nil {
				violations++
			}
			s := d.Stats()
			crashes += s.Crashes
			recoveries += s.Recoveries
			steps += s.Steps
		}
		t.Rows = append(t.Rows, []string{
			m.name, fmt.Sprintf("%d", seeds), fmt.Sprintf("%d", steps),
			fmt.Sprintf("%d", crashes), fmt.Sprintf("%d", recoveries),
			fmt.Sprintf("%d", violations),
		})
	}
	t.Notes = append(t.Notes,
		"each recovery is verified against a committed-state model AND against an independently recovered twin of the same crash image")
	return t
}
