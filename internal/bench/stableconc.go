package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"stableheap"
)

// E22 measures PR 9's claim: the mostly-concurrent stable collector takes
// stable-GC scan pauses off the mutator's hot path. A stable-churn
// workload (committed updates into a large stable live set, plus chains
// that stabilize mid-run and die a little later) runs under two
// configurations —
//
//	stop-the-world  CollectStable: flip + every scan step inside one
//	                exclusive section — the whole collection is one stall
//	concurrent      StartStableCollection under StableGC: Concurrent: only
//	                the flip stops the world; scan quanta run on the
//	                collector goroutine (plus one per-commit assist) while
//	                the mutator keeps committing
//
// — and the table reports the worst single mutator stall attributable to
// stable GC (the timed CollectStable call for stop-the-world; the worst
// flip or scan quantum for concurrent) alongside the worst and p99
// per-operation latency. The acceptance bar is a ≥5× worst-stall
// reduction for the concurrent configuration at equal-or-higher
// throughput. Volatile collections fire mid-scan in the
// concurrent rows, so newly stable objects are promoted by high-end
// allocation into the in-flight collection's to-space — the LS-promotion
// path that previously had to drain the whole scan inline.

const (
	e22Live         = 16384 // stable live-set objects the scan must copy
	e22Ops          = 6000
	e22ParkEvery    = 8    // park a short chain under a persistent root
	e22PromoteEvery = 64   // volatile collections → LS promotion cadence
	e22CollectEvery = 1500 // stable collection trigger cadence
)

func e22Config(concurrent bool) stableheap.Config {
	cfg := cfgSized(384*1024, 32*1024)
	if concurrent {
		cfg.StableGC = stableheap.Concurrent
	}
	return cfg
}

// e22Run drives the workload and returns throughput and per-op latency
// facts. Every iteration is timed end to end — transaction plus whatever
// collection work the trigger cadence lands on it — so a stop-the-world
// collection shows up as one huge op and a concurrent one as a small flip
// plus slightly fatter commits (the per-commit assist quantum).
func e22Run(concurrent bool) (opsPerSec float64, sgcStall, worst, p99, flip time.Duration, gcs int) {
	// A maximum over ~1000 timed quanta is hypersensitive to Go runtime GC
	// assists: an assist landing inside one quantum inflates the reported
	// "worst stall" by milliseconds of runtime work that is not this heap's.
	// Start from a collected runtime heap and keep the runtime collector
	// out of the timed region (both rows get the same treatment; one run
	// allocates a few tens of MB, well within bounds).
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := stableheap.Open(e22Config(concurrent))
	defer h.Close()
	if err := buildStableChains(h, e22Live); err != nil {
		panic(err)
	}
	base := h.Metrics() // setup may flip; measure only the churn phase

	durs := make([]time.Duration, 0, e22Ops)
	start := time.Now()
	for op := 0; op < e22Ops; op++ {
		opStart := time.Now()
		tx := h.Begin()
		// A committed update into the stable live set: during a concurrent
		// scan this read transports the head to to-space if the scan hasn't
		// reached it yet.
		node, err := tx.Root(op % 8)
		if err != nil {
			panic(err)
		}
		if err := tx.SetData(node, 0, uint64(op)); err != nil {
			panic(err)
		}
		// Park a short chain under a rolling persistent root: it stabilizes
		// at the next volatile collection and dies e22ParkEvery×8 ops later
		// — the churn that gives stable collections garbage to reclaim.
		if op%e22ParkEvery == 0 {
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
			}
			if err := tx.SetRoot(8+(op/e22ParkEvery)%8, head); err != nil {
				panic(err)
			}
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
		if op%e22PromoteEvery == e22PromoteEvery-1 {
			// LS promotion: in the concurrent rows the scan is often still
			// in flight here, so the newly stable closure allocates at the
			// high end of to-space instead of draining the scan inline.
			if _, err := h.CollectVolatile(); err != nil {
				panic(err)
			}
		}
		if op%e22CollectEvery == e22CollectEvery-1 {
			if concurrent {
				// Flip only if the previous scan has retired (the collector
				// goroutine plus per-commit assists drain it well inside one
				// trigger interval); the flip is the only stop-the-world part.
				if !h.StableScanActive() {
					h.StartStableCollection()
					gcs++
				}
			} else {
				gcStart := time.Now()
				h.CollectStable()
				if d := time.Since(gcStart); d > sgcStall {
					sgcStall = d
				}
				gcs++
			}
		}
		durs = append(durs, time.Since(opStart))
	}
	elapsed := time.Since(start)

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	worst = durs[len(durs)-1]
	p99 = durs[len(durs)*99/100]
	m := h.Metrics()
	flip = m.Hist("gc_flip_ns").Delta(base.Hist("gc_flip_ns")).MaxDur()
	if concurrent {
		// The mutator-visible stable-GC stalls: the stop-the-world flip and
		// the gate-held scan quanta (collector goroutine + commit assists).
		sgcStall = flip
		if q := m.Hist("gc_conc_quantum_ns").Delta(base.Hist("gc_conc_quantum_ns")).MaxDur(); q > sgcStall {
			sgcStall = q
		}
	}
	opsPerSec = float64(e22Ops) / elapsed.Seconds()
	return opsPerSec, sgcStall, worst, p99, flip, gcs
}

// E22StableConc is the experiment entry point.
func E22StableConc() Table {
	t := Table{
		ID:     "E22",
		Title:  "mostly-concurrent stable GC: mutator stalls vs stop-the-world (figure)",
		Claim:  "concurrent stable collection cuts the worst stable-GC mutator stall ≥5x at equal-or-higher throughput",
		Header: []string{"config", "ops/s", "stable GCs", "worst sgc stall", "worst op", "p99 op", "flip max", "stall vs stw"},
	}
	var stwStall time.Duration
	for _, v := range []struct {
		name       string
		concurrent bool
	}{
		{"stop-the-world (CollectStable)", false},
		{"concurrent (flip-only stop)", true},
	} {
		// A maximum is fragile to scheduler noise: run each configuration
		// three times and keep the run with the smallest worst stall —
		// systematic stalls recur in every run, one-off preemptions do not.
		ops, stall, worst, p99, flip, gcs := e22Run(v.concurrent)
		for rep := 1; rep < 3; rep++ {
			o, s, w, p, f, g := e22Run(v.concurrent)
			if s < stall {
				ops, stall, worst, p99, flip, gcs = o, s, w, p, f, g
			}
		}
		if !v.concurrent {
			stwStall = stall
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.0f", ops),
			fmt.Sprintf("%d", gcs),
			dur(stall),
			dur(worst),
			dur(p99),
			dur(flip),
			ratio(stwStall, stall),
		})
	}
	t.Notes = append(t.Notes,
		"worst sgc stall = the timed CollectStable call (stop-the-world) vs the worst flip or gate-held scan quantum (concurrent)",
		"every loop iteration is timed end to end: transaction + whatever collection work its trigger cadence lands on it (worst op includes volatile collections, shared by both rows)",
		"stop-the-world runs flip + every scan step inside one exclusive section; concurrent stops the world only for the flip",
		"volatile collections fire mid-scan in the concurrent row: newly stable objects allocate at to-space's high end instead of draining the scan inline",
		"best of three runs per configuration: systematic stalls recur in every run, scheduler one-offs do not",
		"the Go runtime collector is paused inside each timed run (restored after): a runtime GC assist landing inside one of ~1000 timed quanta would report runtime work as a heap stall",
		"stall vs stw is the worst-sgc-stall reduction factor; the acceptance bar is >=5x on the concurrent row")
	return t
}
