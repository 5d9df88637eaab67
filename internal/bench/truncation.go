package bench

import (
	"fmt"

	"stableheap"
)

// E15Truncation demonstrates the segmented-log truncation of §2.2/Fig. 4.2:
// with periodic checkpoints and truncation, the retained log stays bounded
// while total appended bytes grow without limit — and recovery still works
// from the retained suffix.
func E15Truncation() Table {
	t := Table{
		ID:     "E15",
		Title:  "log space bounded by checkpoint-driven truncation (extension; Fig. 4.2)",
		Claim:  "the log is a sequence of segments; space before the truncation point is reclaimed",
		Header: []string{"updates so far", "appended bytes", "retained bytes", "retained/appended"},
	}
	cfg := cfgSized(16*1024, 8*1024)
	cfg.LogSegBytes = 16 * 1024
	h := stableheap.Open(cfg)
	if err := buildStableChains(h, 1024); err != nil {
		panic(err)
	}
	total := 0
	for phase := 0; phase < 4; phase++ {
		if err := tailUpdates(h, 2000); err != nil {
			panic(err)
		}
		total += 2000
		h.Checkpoint()
		if err := tailUpdates(h, 1); err != nil { // promote via commit force
			panic(err)
		}
		h.TruncateLog()
		dev := h.Internal().Log().Device()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", dev.Stats().BytesAppended),
			fmt.Sprintf("%d", dev.RetainedBytes()),
			fmt.Sprintf("%.1f%%", 100*float64(dev.RetainedBytes())/float64(dev.Stats().BytesAppended)),
		})
	}
	// Recovery from the truncated log still works.
	disk, logDev := h.Crash()
	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		panic(err)
	}
	if n, err := fullTraversal(h2); err != nil || n < 1024 {
		panic(fmt.Sprintf("post-truncation recovery broken: n=%d err=%v", n, err))
	}
	t.Notes = append(t.Notes,
		"retained bytes level off while appended bytes grow; crash recovery from the truncated log verified at the end",
		"segment granularity: truncation frees whole segments, so the retained fraction steps rather than glides")
	return t
}
