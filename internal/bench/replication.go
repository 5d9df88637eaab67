package bench

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"stableheap"
	"stableheap/internal/repl"
	"stableheap/internal/word"
	"stableheap/internal/workload"
)

// failoverResult is one measured promotion.
type failoverResult struct {
	stats   repl.PromoteStats
	shipped int64 // bytes the standby applied over its lifetime
}

// runFailover runs a primary+standby pair over an in-process pipe:
// warmup transfers with a checkpoint every ckptEvery of them, then
// tailOps transfers after the last checkpoint (the un-checkpointed tail
// promotion must analyse and redo), then crash + promote. The promoted
// bank is verified before returning.
func runFailover(ckptEvery, tailOps int) (failoverResult, error) {
	var out failoverResult
	cfg := cfgSized(32*1024, 8*1024)
	h := stableheap.Open(cfg)
	bank, err := workload.NewBank(h, 0, 64, 8, 1000)
	if err != nil {
		return out, err
	}
	prim := repl.NewPrimary(h.Internal(), repl.PrimaryConfig{})
	disk, logDev := h.Internal().BaseBackup()
	sb, err := repl.NewStandby(repl.StandbyConfig{Name: "bench-standby", Heap: cfg}, disk, logDev)
	if err != nil {
		return out, err
	}
	server, client := net.Pipe()
	go prim.Serve(server)
	go sb.RunConn(client)

	rng := rand.New(rand.NewSource(1))
	const warmup = 400
	for done := 0; done < warmup; done += ckptEvery {
		n := ckptEvery
		if warmup-done < n {
			n = warmup - done
		}
		if _, err := bank.RunMix(rng, n, 50); err != nil {
			return out, err
		}
		h.Checkpoint()
	}
	if tailOps > 0 {
		if _, err := bank.RunMix(rng, tailOps, 50); err != nil {
			return out, err
		}
	}
	h.Internal().Log().ForceAll()
	if err := sb.WaitCaughtUp(h.Internal().LogStableLSN(), 10*time.Second); err != nil {
		return out, err
	}

	h.Crash()
	promoted, stats, err := sb.Promote()
	if err != nil {
		return out, err
	}
	bank.Reattach(stableheap.AdoptInternal(promoted))
	total, err := bank.Total()
	if err != nil {
		return out, err
	}
	if total != 64*1000 {
		return out, fmt.Errorf("promoted bank total %d, want %d", total, 64*1000)
	}
	out.stats = stats
	out.shipped = sb.Metrics().Counter("repl_applied_bytes_total")
	return out, nil
}

// E16Failover measures failover time against the two knobs that bound it:
// the checkpoint interval (how far back analysis starts) and the
// un-checkpointed tail at the crash (how much shipped log promotion must
// re-scan). Continuous apply has already installed every shipped record,
// so promotion's redo is page-LSN-conditioned no-ops; what remains is the
// analysis scan and loser undo — both proportional to the log since the
// last shipped checkpoint, independent of heap size.
func E16Failover() Table {
	t := Table{
		ID:    "E16",
		Title: "failover time vs checkpoint interval and replication lag",
		Claim: "promotion = bounded recovery on the standby: failover time tracks the log written since the last shipped checkpoint, not heap size",
		Header: []string{"ckpt_every", "tail_ops", "redo_window_B", "redo_recs",
			"losers", "shipped_B", "failover"},
	}
	for _, ckptEvery := range []int{100, 400} {
		for _, tailOps := range []int{0, 100, 400} {
			r, err := runFailover(ckptEvery, tailOps)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("ckpt_every=%d tail=%d failed: %v", ckptEvery, tailOps, err))
				continue
			}
			window := int64(0) // redo skipped: nothing dirty since the checkpoint
			if r.stats.RedoStart != word.NilLSN {
				window = int64(r.stats.AppliedLSN) - int64(r.stats.RedoStart)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(ckptEvery), fmt.Sprint(tailOps),
				fmt.Sprint(window), fmt.Sprint(r.stats.Scanned),
				fmt.Sprint(r.stats.Losers), fmt.Sprint(r.shipped),
				dur(r.stats.Duration),
			})
		}
	}
	t.Notes = append(t.Notes,
		"redo_window_B = promoted-heap analysis start to applied LSN (log bytes re-scanned at failover)",
		"shipped_B = total log bytes the standby applied while warm (continuous redo, off the failover path)")
	return t
}
