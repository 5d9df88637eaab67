package bench

import (
	"fmt"
	"math/rand"
	"time"

	"stableheap"
	"stableheap/internal/wal"
)

// E6LogVolume breaks the log down by origin across live fractions: what
// the atomic collector adds (flip/copy/scan records) versus what
// transactions and stability tracking write. Copy records are small (no
// object contents — repeating history reconstructs them), which is the
// design's key log-volume property.
func E6LogVolume() Table {
	t := Table{
		ID:     "E6",
		Title:  "log volume by origin vs live fraction (table)",
		Claim:  "the collector's records are address-sized: copy records carry no object contents",
		Header: []string{"live %", "tx bytes", "gc bytes", "tracking bytes", "gc bytes/copied word", "copies"},
	}
	for _, livePct := range []int{20, 50, 80} {
		const space = 32 * 1024
		live := space * livePct / 100 / 4 // 4-word objects
		cfg := cfgSized(space, 16*1024)
		h := stableheap.Open(cfg)
		if err := buildStableChains(h, live); err != nil {
			panic(err)
		}
		lm := h.Log()
		lm.ResetStats()
		before := h.Metrics()
		h.CollectStable()
		m := h.Metrics()
		delta := func(name string) int64 { return m.Counter(name) - before.Counter(name) }
		txB, gcB, trB, _ := lm.VolumeByClass()
		copied := delta("gc_copied_words_total")
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%%", livePct),
			fmt.Sprintf("%d", txB),
			fmt.Sprintf("%d", gcB),
			fmt.Sprintf("%d", trB),
			fmt.Sprintf("%.1f", float64(gcB)/float64(max64(copied, 1))),
			fmt.Sprintf("%d", delta("gc_copied_objects_total")),
		})
	}
	// One more row: the same collection if copy records carried full
	// object images (computed analytically from copied words).
	t.Notes = append(t.Notes,
		"gc cost is a constant ~66B per object (one copy record + its scan fixes) regardless of object size;",
		"a content-carrying scheme pays 8B per copied word on top — the gap widens with object size",
		fmt.Sprintf("record sizes: copy=%dB (framed, no contents), scan fix=16B/slot", len(wal.Encode(wal.CopyRec{}))))
	return t
}

// E9Division quantifies Chapter 5's payoff: a churn-heavy workload (many
// temporary objects, a small stable set) under the divided heap versus the
// all-stable configuration where every allocation and write is logged.
func E9Division() Table {
	t := Table{
		ID:     "E9",
		Title:  "heap division benefit on churny workloads (table)",
		Claim:  "volatile objects avoid all recovery and atomic-GC costs; only stable objects pay",
		Header: []string{"configuration", "time", "log bytes", "log records", "forces", "ratio (log)"},
	}
	run := func(divided bool) (time.Duration, int64, int64, int64) {
		cfg := cfgSized(64*1024, 32*1024)
		cfg.Undivided = !divided
		h := stableheap.Open(cfg)
		rng := rand.New(rand.NewSource(9))
		// Small stable set...
		if err := buildChain(h, 0, 64); err != nil {
			panic(err)
		}
		// ...then heavy temporary churn with occasional stable updates.
		start := time.Now()
		for i := 0; i < 150; i++ {
			tx := h.Begin()
			for j := 0; j < 30; j++ {
				n, err := tx.Alloc(1, 0, 6)
				if err != nil {
					panic(err)
				}
				for w := 0; w < 6; w++ {
					if err := tx.SetData(n, w, rng.Uint64()); err != nil {
						panic(err)
					}
				}
			}
			if i%10 == 0 {
				r, _ := tx.Root(0)
				if err := tx.SetData(r, 0, uint64(i)); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
		elapsed := time.Since(start)
		s := h.Log().Device().Stats()
		return elapsed, s.BytesAppended, s.Appends, s.Forces
	}
	dTime, dBytes, dRecs, dForces := run(true)
	aTime, aBytes, aRecs, aForces := run(false)
	t.Rows = append(t.Rows,
		[]string{"divided (Ch. 5)", dur(dTime), fmt.Sprintf("%d", dBytes), fmt.Sprintf("%d", dRecs), fmt.Sprintf("%d", dForces), "1.0x"},
		[]string{"all-stable (Ch. 3-4)", dur(aTime), fmt.Sprintf("%d", aBytes), fmt.Sprintf("%d", aRecs), fmt.Sprintf("%d", aForces), fmt.Sprintf("%.1fx", float64(aBytes)/float64(dBytes))},
	)
	t.Notes = append(t.Notes,
		"the churn (4500 temporary objects, 27000 writes) logs nothing under division; all-stable logs every allocation and store")
	return t
}
