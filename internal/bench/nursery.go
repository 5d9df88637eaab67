package bench

import (
	"fmt"
	"time"

	"stableheap"
)

// E19 measures PR 6's claim: the generational nursery plus the
// mostly-concurrent volatile collector take volatile-GC pauses off the
// mutator's hot path. An allocation-heavy workload (a large live volatile
// set plus fast-dying churn) runs under three configurations —
//
//	baseline          NurseryBytes < 0, stop-the-world full collections
//	nursery           minor collections absorb the churn; fulls still STW
//	nursery+concurrent fulls keep only the flip stop-the-world
//
// — and the table reports the worst mutator stall attributable to
// volatile GC (the max across the volatile pause histograms: full-pause,
// minor-pause, flip-pause and scan-quantum) alongside allocation
// throughput. The acceptance bar is a ≥5× max-pause reduction for
// nursery+concurrent at equal-or-better throughput.

// e19LiveSlots × e19LiveNodes 3-word nodes of long-lived volatile data:
// what a stop-the-world full collection must copy inside one pause. The
// ring anchor holds e19RingSlots medium-lived chains parked every
// e19ParkEvery ops, so each chain outlives several minor collections,
// gets promoted, and dies in the aged space — the pressure that makes
// full collections fire mid-measurement.
const (
	e19LiveSlots = 4
	e19LiveNodes = 512
	e19RingSlots = 256
	e19ParkEvery = 8
	e19ChurnData = 10 // data words per churn object (12 words with header)
	e19Ops       = 24_000
)

// e19Config builds the shared heap geometry; variant switches the
// generational/concurrent machinery.
func e19Config(nursery, concurrent bool) stableheap.Config {
	cfg := cfgSized(64*1024, 32*1024)
	if nursery {
		// Generational GC 101: the nursery is sized to a minor-pause
		// budget (promotion bandwidth × budget), not to the heap. 8 KiB
		// (1 Ki words) keeps each minor collection roughly an order of
		// magnitude under the baseline full-collection pause on this
		// workload's survival rate.
		cfg.NurseryBytes = 8 << 10
	} else {
		cfg.NurseryBytes = -1
	}
	cfg.ConcurrentVGC = concurrent
	return cfg
}

// e19Run drives the workload and returns the throughput and pause facts.
func e19Run(nursery, concurrent bool) (opsPerSec float64, allocWordsPerSec float64, maxOp time.Duration, maxPause time.Duration, fulls, minors, concs int) {
	h := stableheap.Open(e19Config(nursery, concurrent))
	defer h.Close()

	// Long-lived volatile set under low vol roots: survives every
	// collection, so a stop-the-world full copy pays for all of it.
	for slot := 0; slot < e19LiveSlots; slot++ {
		tx := h.Begin()
		var head *stableheap.Ref
		for i := 0; i < e19LiveNodes; i++ {
			n, err := tx.Alloc(2, 1, 1)
			if err != nil {
				panic(err)
			}
			if err := tx.SetData(n, 0, uint64(i)); err != nil {
				panic(err)
			}
			if err := tx.SetPtr(n, 0, head); err != nil {
				panic(err)
			}
			head = n
		}
		if err := tx.SetVolRoot(slot, head); err != nil {
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
	}
	// The ring anchor: one wide object whose pointer slots hold the
	// parked chains (a circular buffer in the heap, so chain lifetime is
	// e19RingSlots × e19ParkEvery ops — longer than a minor-collection
	// interval).
	{
		tx := h.Begin()
		ring, err := tx.Alloc(3, e19RingSlots, 0)
		if err != nil {
			panic(err)
		}
		if err := tx.SetVolRoot(31, ring); err != nil {
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
	}
	// Drain the setup phase: promote the live set out of the nursery and
	// retire any scan, then snapshot the pause histograms so the measured
	// distribution covers only the churn phase (the setup minors promote
	// nearly everything — the opposite of the steady state under test).
	if _, err := h.CollectVolatile(); err != nil {
		panic(err)
	}
	h.FinishVolatileScan()
	base := h.Metrics()

	// Churn: every op commits a fresh small object into a rolling vol
	// root, killing the previous one — the allocation-heavy hot path.
	// Every e19ParkEvery-th op additionally parks a small chain in the
	// ring, so a steady trickle survives minor collections, ages, and
	// eventually fills the aged semispace: full collections — stop-the-
	// world or concurrent, the distinction under test — fire
	// mid-measurement.
	allocWords := 0
	start := time.Now()
	for op := 0; op < e19Ops; op++ {
		opStart := time.Now()
		tx := h.Begin()
		n, err := tx.Alloc(1, 1, e19ChurnData)
		if err != nil {
			panic(err)
		}
		allocWords += 2 + e19ChurnData // descriptor + 1 ptr + data
		if err := tx.SetData(n, 0, uint64(op)); err != nil {
			panic(err)
		}
		if op%e19ParkEvery == 0 {
			var head *stableheap.Ref
			for k := 0; k < 4; k++ {
				c, err := tx.Alloc(1, 1, 1)
				if err != nil {
					panic(err)
				}
				if err := tx.SetPtr(c, 0, head); err != nil {
					panic(err)
				}
				head = c
				allocWords += 3
			}
			ring, err := tx.VolRoot(31)
			if err != nil {
				panic(err)
			}
			// Overwrite the oldest parked chain (it dies wherever it
			// lives — nursery or aged space) with the fresh one; the
			// aged-ring→nursery-chain store exercises the generational
			// write barrier on every park.
			if err := tx.SetPtr(ring, (op/e19ParkEvery)%e19RingSlots, head); err != nil {
				panic(err)
			}
		}
		if err := tx.SetVolRoot(e19LiveSlots, n); err != nil {
			panic(err)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
		if d := time.Since(opStart); d > maxOp {
			maxOp = d
		}
	}
	elapsed := time.Since(start)

	m := h.Metrics()
	for _, name := range []string{"vgc_pause_ns", "vgc_minor_pause_ns", "vgc_conc_flip_pause_ns", "vgc_conc_quantum_ns"} {
		if d := m.Hist(name).Delta(base.Hist(name)).MaxDur(); d > maxPause {
			maxPause = d
		}
	}
	delta := func(name string) int { return int(m.Counter(name) - base.Counter(name)) }
	opsPerSec = float64(e19Ops) / elapsed.Seconds()
	allocWordsPerSec = float64(allocWords) / elapsed.Seconds()
	return opsPerSec, allocWordsPerSec, maxOp, maxPause, delta("vgc_collections_total"),
		delta("vgc_nursery_minor_total"), delta("vgc_conc_collections_total")
}

// E19Nursery is the experiment entry point.
func E19Nursery() Table {
	t := Table{
		ID:     "E19",
		Title:  "nursery + mostly-concurrent volatile GC: pause vs allocation throughput",
		Claim:  "nursery+concurrent cuts the worst volatile-GC mutator stall ≥5× at equal-or-better allocation throughput",
		Header: []string{"config", "ops/s", "alloc words/s", "fulls", "minors", "conc", "max vgc pause", "max op", "pause vs baseline"},
	}
	var basePause time.Duration
	for _, v := range []struct {
		name                string
		nursery, concurrent bool
	}{
		{"baseline (no nursery, STW)", false, false},
		{"nursery", true, false},
		{"nursery+concurrent", true, true},
	} {
		// A maximum is fragile to scheduler noise (a preemption inside a
		// collection inflates it by milliseconds on a loaded host): run
		// each configuration three times and report the run with the
		// smallest worst pause — systematic pauses appear in every run,
		// one-off stalls do not.
		ops, words, maxOp, maxPause, fulls, minors, concs := e19Run(v.nursery, v.concurrent)
		for rep := 1; rep < 3; rep++ {
			o, w, mo, mp, f, m, c := e19Run(v.nursery, v.concurrent)
			if mp < maxPause {
				ops, words, maxOp, maxPause, fulls, minors, concs = o, w, mo, mp, f, m, c
			}
		}
		if v.name == "baseline (no nursery, STW)" {
			basePause = maxPause
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.0f", ops),
			fmt.Sprintf("%.0f", words),
			fmt.Sprintf("%d", fulls),
			fmt.Sprintf("%d", minors),
			fmt.Sprintf("%d", concs),
			dur(maxPause),
			dur(maxOp),
			ratio(basePause, maxPause),
		})
	}
	t.Notes = append(t.Notes,
		"max vgc pause = worst single mutator stall across the volatile pause histograms (full, minor, flip, scan quantum)",
		"best of three runs per configuration: systematic pauses recur in every run, scheduler one-offs do not",
		"the nursery-only row trades pause frequency (minors absorb the churn) but a full collection still stops the world",
		"nursery+concurrent stops the world only for flips and scan quanta; the copy runs on the collector goroutine",
		"pause vs baseline is the reduction factor; the acceptance bar is ≥5x on the nursery+concurrent row")
	return t
}
