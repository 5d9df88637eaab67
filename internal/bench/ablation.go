package bench

import (
	"fmt"
	"time"

	"stableheap"
	"stableheap/internal/core"
	"stableheap/internal/crashtest"
)

// E13GroupCommit measures group commit (§2.2.1 footnote): committers that
// overlap share one log force — the first leads it, the ones whose commit
// record it covers wait for it — so forces per commit falls as committers
// are added, with no window or batch size to tune. It is the disjoint
// scaling kernel with the forces counted; over a free force nothing would overlap.
func E13GroupCommit() Table {
	t := Table{
		ID:     "E13",
		Title:  "group commit: forces per commit and throughput (extension)",
		Claim:  "a high-performance transaction system uses group commit … and commits many transactions at the same time (§2.2.1 fn. 1)",
		Header: []string{"committers", "commits", "forces", "forces/commit", "commits/sec"},
	}
	const window = 250 * time.Millisecond
	for _, workers := range []int{1, 2, 4, 8} {
		commits, forces := scalingMeasure(workers, window)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%d", commits), fmt.Sprintf("%d", forces),
			fmt.Sprintf("%.2f", float64(forces)/float64(max64(commits, 1))),
			fmt.Sprintf("%.0f", float64(commits)/window.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("log force costs %v (a faultfs.Slow backing); a lone committer leads its own force at once — 1.00 — and with k ≥ 2 committers open together, each short next to the force, a leader waits (at most one force) until k callers are in the force gate and closes its batch at the end of the log: k committers settle near 1/k, whatever the force costs", scalingForceDelay),
		"durability is unchanged: a committer returns only once a completed force has covered its commit record, and holds its locks until then")
	return t
}

// E14CopyContents is the ablation of the paper's content-free copy
// records: the same collections with copy records carrying full object
// images. Self-contained replay saves the GCEnd write-back but logs every
// copied byte — the trade the paper's design declines.
func E14CopyContents() Table {
	t := Table{
		ID:     "E14",
		Title:  "ablation: content-free vs content-carrying copy records (design choice of §3.4.1)",
		Claim:  "copy records need no contents: repeating history reconstructs the from-space image",
		Header: []string{"copy records", "gc log bytes", "bytes/copied word", "GCEnd page writes", "collection time", "crash matrix"},
	}
	for _, carry := range []bool{false, true} {
		cfg := cfgSized(48*1024, 16*1024)
		cfg.CopyContents = carry
		h := stableheap.Open(cfg)
		if err := buildStableChains(h, 4096); err != nil {
			panic(err)
		}
		lm := h.Log()
		lm.ResetStats()
		g0 := h.GCStats()
		start := time.Now()
		h.CollectStable()
		elapsed := time.Since(start)
		g1 := h.GCStats()
		_, gcB, _, _ := lm.VolumeByClass()
		copied := g1.CopiedWords - g0.CopiedWords

		// Soundness sweep in this mode.
		ccfg := core.Config{
			PageSize: 256, StableWords: 16 * 1024, VolatileWords: 4 * 1024,
			CopyContents: carry,
		}
		d := crashtest.New(ccfg, 5)
		verdict := "0 violations"
		if err := d.Run(60, 0.12, 0.5, false); err != nil {
			verdict = "VIOLATION: " + err.Error()
		}

		name := "content-free (paper)"
		if carry {
			name = "content-carrying (ablation)"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", gcB),
			fmt.Sprintf("%.1f", float64(gcB)/float64(max64(copied, 1))),
			fmt.Sprintf("%d", g1.GCEndFlushes-g0.GCEndFlushes),
			dur(elapsed),
			verdict,
		})
	}
	t.Notes = append(t.Notes,
		"content-free pays a once-per-collection write-back of to-space so replay can reconstruct copies; content-carrying pays 8B per copied word in the log, every collection",
		"for these 4-word objects the byte costs are comparable; the content-free advantage scales with object size while the write-back does not")
	return t
}
