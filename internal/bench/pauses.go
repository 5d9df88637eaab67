package bench

import (
	"fmt"
	"time"

	"stableheap"
)

// E3Pauses measures the figure behind the paper's whole motivation: the
// maximum collection pause as the live heap grows, stop-the-world versus
// incremental. Stop-the-world pauses grow with the live set; the
// incremental collector's worst pause stays bounded by a flip (root set)
// or a single page scan.
func E3Pauses() Table {
	t := Table{
		ID:     "E3",
		Title:  "GC pause vs live-set size: stop-the-world vs incremental (figure)",
		Claim:  "stop-the-world pauses grow ~linearly with the live set; incremental pauses stay flat",
		Header: []string{"live objects", "stw max pause", "incr flip", "incr avg step", "incr max step", "stw/avg-step"},
	}
	for _, live := range []int{512, 1024, 2048, 4096, 8192} {
		stableWords := live*4 + 16*1024

		// Stop-the-world: the whole collection is one pause.
		cfg := cfgSized(stableWords, 16*1024)
		cfg.StableGC = stableheap.StopTheWorld
		h := stableheap.Open(cfg)
		if err := buildStableChains(h, live); err != nil {
			panic(err)
		}
		start := time.Now()
		h.CollectStable()
		stw := time.Since(start)

		// Incremental Ellis: pause = max(flip, scan step, trap), with a
		// mutator chasing pointers between quanta (taking traps).
		cfg2 := cfgSized(stableWords, 16*1024)
		h2 := stableheap.Open(cfg2)
		if err := buildStableChains(h2, live); err != nil {
			panic(err)
		}
		h2.StartStableCollection()
		for i := 0; h2.StepStable(); i++ {
			if i%4 == 0 {
				if _, err := walkChain(h2, 0); err != nil {
					panic(err)
				}
			}
		}
		m := h2.Metrics()
		step := m.Hist("gc_step_ns")
		avgStep := step.MeanDur()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", live),
			dur(stw),
			dur(m.Hist("gc_flip_ns").MaxDur()), dur(avgStep), dur(step.MaxDur()),
			ratio(stw, avgStep),
		})
	}
	t.Notes = append(t.Notes,
		"incremental pauses are bounded by one scan quantum / the flip's root copy, independent of live-set size",
		"the flip grows only with the root set (handles + volatile-area scan), not with the heap",
		"max-step carries scheduler/runtime noise on shared machines; the average is the algorithmic cost")
	return t
}

// E10Barrier measures the read-barrier trade-off of §3.2.1/§3.8: Ellis
// traps are few (≤ one per to-space page, skewed right after the flip) but
// each scans a page; Baker checks every load. The table reports mutator
// pointer-chase cost during an in-flight collection under each barrier,
// and the Ellis trap distribution (first half vs second half of the
// mutator's work).
func E10Barrier() Table {
	const live = 4096
	t := Table{
		ID:     "E10",
		Title:  "read-barrier cost and trap skew (figure)",
		Claim:  "Ellis: ≤1 trap per page, concentrated just after the flip; Baker: per-load checks, finer pauses, higher mutator overhead",
		Header: []string{"barrier", "walk during GC", "walk idle", "overhead", "traps 1st half", "traps 2nd half"},
	}
	// Trap-driven Ellis: ops do not donate scan quanta, so the trap
	// distribution is the barrier's own. It wastes up to a page per frontier
	// trap (the paper's acknowledged space cost of page-granular scanning),
	// so this experiment sizes the semispaces with that headroom.
	for _, mode := range []stableheap.GCMode{stableheap.EllisTrapDriven, stableheap.Baker} {
		cfg := cfgSized(live*16+16*1024, 16*1024)
		cfg.StableGC = mode
		h := stableheap.Open(cfg)
		if err := buildStableChains(h, live); err != nil {
			panic(err)
		}
		// Idle walk cost (no collection active).
		startIdle := time.Now()
		for i := 0; i < 4; i++ {
			if _, err := walkChain(h, 0); err != nil {
				panic(err)
			}
		}
		idle := time.Since(startIdle) / 4

		// Walk cost with a collection in flight; the first walks right
		// after the flip hit protected pages (Ellis traps), later walks
		// find them scanned — the paper's skew. Walk the chains the
		// background scanner reaches last (high slots) first.
		h.StartStableCollection()
		trapsBefore := h.Metrics().Counter("gc_barrier_traps_total")
		startGC := time.Now()
		const walks = 8
		var trapsMid int64
		for i := 0; i < walks; i++ {
			if _, err := walkChain(h, 7-i); err != nil {
				panic(err)
			}
			if i == walks/2-1 {
				trapsMid = h.Metrics().Counter("gc_barrier_traps_total")
			}
			h.StepStable() // one background quantum between walks
		}
		during := time.Since(startGC) / walks
		trapsAfter := h.Metrics().Counter("gc_barrier_traps_total")
		for h.StepStable() {
		}
		t.Rows = append(t.Rows, []string{
			mode.String(),
			dur(during), dur(idle), ratio(during, idle),
			fmt.Sprintf("%d", trapsMid-trapsBefore),
			fmt.Sprintf("%d", trapsAfter-trapsMid),
		})
	}
	t.Notes = append(t.Notes,
		"Baker takes zero traps (its barrier is inline on every load); Ellis's traps cluster in the first half — the paper's skew")
	return t
}
