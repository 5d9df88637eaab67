package crashtest

import (
	"fmt"
	"net"
	"time"

	"stableheap/internal/repl"
)

// ReplicatedCrashAndPromote exercises failover instead of
// recover-in-place: it attaches a warm standby to the current heap (base
// backup + in-process log shipping), runs steps more random operations
// while replication streams underneath them, optionally leaves an
// incremental stable collection in flight, crashes the primary, promotes
// the standby, and verifies the model against the promoted heap — the
// same I4/I6 obligations CrashAndRecover checks, plus coordinator-driven
// resolution of transactions the promotion restored in-doubt.
func (d *Driver) ReplicatedCrashAndPromote(steps int, midGC bool) (repl.PromoteStats, error) {
	prim := repl.NewPrimary(d.hp, repl.PrimaryConfig{})
	disk, logDev := d.hp.BaseBackup()
	sb, err := repl.NewStandby(repl.StandbyConfig{Name: "crashtest-standby", Heap: d.cfg}, disk, logDev)
	if err != nil {
		return repl.PromoteStats{}, fmt.Errorf("standby bootstrap: %w", err)
	}
	server, client := net.Pipe()
	go prim.Serve(server)
	go sb.RunConn(client)

	for i := 0; i < steps; i++ {
		if err := d.Step(); err != nil {
			return repl.PromoteStats{}, fmt.Errorf("replicated step %d: %w", i, err)
		}
	}
	if midGC {
		// Give the stable area real content, then leave an incremental
		// collection in flight at the failover point.
		if _, err := d.hp.CollectVolatile(); err != nil {
			return repl.PromoteStats{}, err
		}
		d.stats.VolGCs++
		d.hp.StartStableCollection()
		d.hp.StepStable()
		d.stats.StableGCs++
	}
	// Expose the log tail (e.g. unforced collector records) to the
	// shipper, then let the standby drain it before pulling the plug.
	d.hp.Log().ForceAll()
	if err := sb.WaitCaughtUp(d.hp.LogStableLSN(), 10*time.Second); err != nil {
		return repl.PromoteStats{}, err
	}

	d.hp.Crash()
	d.stats.Crashes++
	hp, pstats, err := sb.Promote()
	if err != nil {
		return repl.PromoteStats{}, fmt.Errorf("promote: %w", err)
	}
	d.cfg.Dir = "" // the promoted heap lives on the standby's devices, not in the directory
	if err := d.adopt(hp); err != nil {
		return pstats, fmt.Errorf("post-promotion: %w", err)
	}
	return pstats, nil
}
