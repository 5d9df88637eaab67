package crashtest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"stableheap/internal/core"
)

// The GCEnd → clean window under a real process death. A finished stable
// collection's to-space is owed to the disk, not written in the finishing
// step: the page cleaner writes it after later commits' forces, and until
// then the freed from-space's image on disk is what a recovery replays the
// collection's copies from (DESIGN.md §4.2a). The child commits chains,
// runs a whole stable collection, optionally checkpoints, commits a
// parent-chosen number of small transactions — none, part or all of the
// to-space cleaned — and SIGKILLs itself. The parent recovers, audits the
// acknowledged chains, crashes the recovered heap before any commit could
// clean, recovers and audits again.

// cleanChains × cleanChainLen nodes of eight words make a to-space of more
// than one cleaner quantum at 256-byte pages.
const (
	cleanChains   = 3
	cleanChainLen = 60
)

// killCleanCfg is killCfg with an unbounded vm pool: evictions would write
// the to-space before the cleaner could.
func killCleanCfg(dir string) core.Config {
	cfg := killCfg(dir)
	cfg.CachePages = 0
	return cfg
}

// TestKillPointCleanChild is the subprocess body; it skips unless re-exec'd.
func TestKillPointCleanChild(t *testing.T) {
	dir := os.Getenv(envDir)
	if dir == "" {
		t.Skip("subprocess body")
	}
	commits, _ := strconv.Atoi(os.Getenv(envOp))
	checkpoint := os.Getenv(envMode) == "1"
	hp, err := openDir(killCleanCfg(dir))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	commitChains(t, hp, os.Getenv(envAcks), cleanChains, cleanChainLen, 6)

	// Promote the chains, collect the stable area whole (GCEnd: its
	// to-space is owed), then let commits clean part of it, and die.
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	hp.CollectStable()
	if owed := hp.Mem().Owed(); owed <= 32 {
		t.Fatalf("the collection owes %d pages, not more than a cleaner quantum", owed)
	}
	if checkpoint {
		hp.Checkpoint()
	}
	for i := 0; i < commits; i++ {
		tr := hp.Begin()
		n, err := tr.Alloc(6, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetData(n, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetRoot(5, n); err != nil {
			t.Fatal(err)
		}
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	t.Fatal("unreachable: SIGKILL did not take")
}

// TestKillPointBetweenGCEndAndClean SIGKILLs a child between a stable
// collection's GCEnd and the end of its clean, over a real filestore, for
// 0 to 3 commits in the window, with and without a checkpoint taken in
// it. Each cycle recovers twice — the second time from the checkpoint the
// first recovery closed with, before any commit could clean — and audits
// after each; the next cycle's child collects again over what is left.
func TestKillPointBetweenGCEndAndClean(t *testing.T) {
	if os.Getenv(envDir) != "" {
		t.Skip("inside subprocess")
	}
	for commits := 0; commits < 4; commits++ {
		for _, checkpoint := range []int{0, 1} {
			t.Run(fmt.Sprintf("commits%d-checkpoint%d", commits, checkpoint), func(t *testing.T) {
				t.Parallel()
				base := t.TempDir()
				heapDir := filepath.Join(base, "heap")
				acksPath := filepath.Join(base, "acks.txt")
				for cycle := 0; cycle < 2; cycle++ {
					runChildToSIGKILL(t, "^TestKillPointCleanChild$", heapDir, acksPath,
						fmt.Sprintf("%s=%d", envOp, commits), fmt.Sprintf("%s=%d", envMode, checkpoint))
					gen := lastAck(t, acksPath)
					if gen != uint64(cycle+1) {
						t.Fatalf("cycle %d: child acknowledged generation %d", cycle, gen)
					}
					hp, err := openDir(killCleanCfg(heapDir))
					if err != nil {
						t.Fatalf("cycle %d: recover: %v", cycle, err)
					}
					auditChains(t, hp, gen, cleanChains, cleanChainLen)
					hp.Crash()
					if hp, err = openDir(killCleanCfg(heapDir)); err != nil {
						t.Fatalf("cycle %d: second recover: %v", cycle, err)
					}
					auditChains(t, hp, gen, cleanChains, cleanChainLen)
					hp.Close()
				}
			})
		}
	}
}
