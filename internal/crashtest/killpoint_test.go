package crashtest

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/gc"
	"stableheap/internal/shard"
)

// The kill-point harness is the half of the file-backed crash model the
// in-process chaos tests cannot reach: a real process exit without
// fsync. In-process Crash() treats completed WritePage calls as durable
// (they reached the OS page cache, which survives a kill); here the
// child process dies with user-space state — the unforced log tail, the
// dirty pages of the vm pool — genuinely gone, and correctness rests
// entirely on the real fsync ordering: commit forces fdatasync the log,
// and SetMaster fdatasyncs pages before the master block names a
// checkpoint.
//
// The child (TestKillPointChild, run via re-exec) increments a counter
// object, one commit per op, fsyncing an acknowledgment line outside the
// heap after each commit, checkpointing and truncating on fixed cadences,
// and calls os.Exit at a parent-chosen op and position. The parent
// recovers the directory and audits: the counter must hold exactly the
// acknowledged value — plus at most one for kills landing between a
// commit's force and its acknowledgment.

const (
	killExitCode = 7
	envDir       = "SH_KILLPOINT_DIR"
	envAcks      = "SH_KILLPOINT_ACKS"
	envOp        = "SH_KILLPOINT_OP"
	envMode      = "SH_KILLPOINT_MODE"
	envQuanta    = "SH_KILLPOINT_QUANTA"
)

// Kill positions within an op.
const (
	killBeforeCommit = iota // top of the loop: nothing in flight
	killAfterCommit         // after Commit returns, before the ack line
	killAfterCheckpoint
	// killMidTruncate dies inside the log's Truncate, after its first
	// segment unlink and before the next (storage.Log.TruncateHook).
	killMidTruncate
	numKillModes
)

// killCachePages bounds the vm pool of every kill-point heap. The counter
// workload touches five pages, so with two resident dirty evictions write
// slots between kills, most of them forcing the log first (the WAL rule).
const killCachePages = 2

func killCfg(dir string) core.Config {
	return core.Config{
		Dir:           dir,
		CachePages:    killCachePages,
		PageSize:      256,
		StableWords:   8 * 1024,
		VolatileWords: 4 * 1024,
		LogSegBytes:   4 * 1024, // several segments per run: truncation + kills interact
	}
}

// TestKillPointChild is the subprocess body; it skips unless re-exec'd.
func TestKillPointChild(t *testing.T) {
	dir := os.Getenv(envDir)
	if dir == "" {
		t.Skip("subprocess body")
	}
	killOp, _ := strconv.Atoi(os.Getenv(envOp))
	mode, _ := strconv.Atoi(os.Getenv(envMode))

	hp, err := openDir(killCfg(dir))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	acks, err := os.OpenFile(os.Getenv(envAcks), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("child acks: %v", err)
	}

	truncArmed := false
	if mode == killMidTruncate {
		_, logDev := hp.Devices()
		logDev.TruncateHook = func() {
			if truncArmed {
				os.Exit(killExitCode) // the oldest file unlinked, the rest not yet
			}
		}
	}

	// Boot: find (or create) the counter object in root slot 0.
	v := readCounter(t, hp)
	for op := 0; ; op++ {
		if op > killOp+400 {
			t.Fatalf("no kill point reached by op %d (mode %d)", op, mode)
		}
		if mode == killBeforeCommit && op == killOp {
			os.Exit(killExitCode)
		}
		incCounter(t, hp, v+1)
		v++
		if mode == killAfterCommit && op == killOp {
			os.Exit(killExitCode) // committed but never acknowledged
		}
		if _, err := fmt.Fprintf(acks, "%d\n", v); err != nil {
			t.Fatalf("ack write: %v", err)
		}
		if err := acks.Sync(); err != nil {
			t.Fatalf("ack sync: %v", err)
		}
		if op%7 == 6 {
			hp.Checkpoint()
			if mode == killAfterCheckpoint && op >= killOp {
				os.Exit(killExitCode)
			}
		}
		if op%13 == 12 {
			truncArmed = op >= killOp
			hp.TruncateLog()
		}
	}
}

func readCounter(t *testing.T, hp *core.Heap) uint64 {
	t.Helper()
	tr := hp.Begin()
	defer tr.Abort()
	node, err := tr.Root(0)
	if err != nil {
		t.Fatalf("root: %v", err)
	}
	if node == nil {
		return 0
	}
	// A fresh heap's root slot may hold the format-time root object,
	// which has no data slots; the counter doesn't exist yet then.
	v, err := tr.Data(node, 0)
	if err != nil {
		return 0
	}
	return v
}

// incCounter commits the counter at value v, plus a fresh churn object in
// slot 1 so page traffic goes beyond the single counter page.
func incCounter(t *testing.T, hp *core.Heap, v uint64) {
	t.Helper()
	tr := hp.Begin()
	node, err := tr.Root(0)
	if err != nil {
		t.Fatalf("root: %v", err)
	}
	if node != nil {
		if _, derr := tr.Data(node, 0); derr != nil {
			node = nil // format-time root object, not our counter
		}
	}
	if node == nil {
		if node, err = tr.Alloc(1, 0, 1); err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := tr.SetRoot(0, node); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.SetData(node, 0, v); err != nil {
		t.Fatal(err)
	}
	churn, err := tr.Alloc(2, 0, 2)
	if err != nil {
		t.Fatalf("alloc churn: %v", err)
	}
	if err := tr.SetData(churn, 0, v*31); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetRoot(1, churn); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatalf("commit %d: %v", v, err)
	}
}

func lastAck(t *testing.T, path string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for _, line := range splitLines(raw) {
		if n, err := strconv.ParseUint(line, 10, 64); err == nil {
			last = n
		}
	}
	return last
}

func splitLines(b []byte) []string {
	var out []string
	start := 0
	for i, c := range b {
		if c == '\n' {
			if i > start {
				out = append(out, string(b[start:i]))
			}
			start = i + 1
		}
	}
	return out
}

// TestKillPointMatrix is the crash matrix: ≥20 seeds × {kill op, kill
// position}, two kill/recover cycles per seed, full audit after each.
func TestKillPointMatrix(t *testing.T) {
	if os.Getenv(envDir) != "" {
		t.Skip("inside subprocess")
	}
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()
			heapDir := filepath.Join(base, "heap")
			acksPath := filepath.Join(base, "acks.txt")
			for cycle := 0; cycle < 2; cycle++ {
				killOp := 3 + (seed*5+cycle*11)%23
				mode := (seed + cycle) % numKillModes
				runChildToKill(t, heapDir, acksPath, killOp, mode)

				acked := lastAck(t, acksPath)
				hp, err := openDir(killCfg(heapDir))
				if err != nil {
					t.Fatalf("cycle %d (op=%d mode=%d): recover: %v", cycle, killOp, mode, err)
				}
				v := readCounter(t, hp)
				switch mode {
				case killAfterCommit:
					if v != acked && v != acked+1 {
						t.Fatalf("cycle %d: counter %d, acked %d (want acked or acked+1)", cycle, v, acked)
					}
				default:
					if v != acked {
						t.Fatalf("cycle %d (op=%d mode=%d): counter %d != acked %d", cycle, killOp, mode, v, acked)
					}
				}
				// The audit heap must be fully usable, not just readable.
				incCounter(t, hp, v+1)
				hp.Close()
				// Close committed one more increment; the ack file doesn't
				// know. Record it so the next cycle's audit balances.
				f, err := os.OpenFile(acksPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(f, "%d\n", v+1)
				f.Close()
			}
		})
	}
}

// killScanCfg is killCfg with the mostly-concurrent stable collector on,
// manually paced (the child steps the scan itself, so the kill lands at
// an exact quantum boundary).
func killScanCfg(dir string) core.Config {
	cfg := killCfg(dir)
	cfg.StableGC = gc.Concurrent
	cfg.ManualScan = true
	return cfg
}

// scanChains / scanChainLen shape the stable-scan child's committed state.
const (
	scanChains   = 3
	scanChainLen = 4
)

// TestKillPointStableScanChild is the subprocess body for the concurrent
// stable-scan kill point; it skips unless re-exec'd. It commits chains of
// objects (root slots 2..4), fsyncs an acknowledgment of the generation,
// promotes the chains to the stable area, flips the stable area
// concurrently, paces the scan a parent-chosen number of quanta and then
// SIGKILLs itself with the scan in flight — the unforced log tail and the
// dirty vm pool die with the process, so recovery sees only
// what fdatasync ordered, mid-scan.
func TestKillPointStableScanChild(t *testing.T) {
	dir := os.Getenv(envDir)
	if dir == "" {
		t.Skip("subprocess body")
	}
	quanta, _ := strconv.Atoi(os.Getenv(envQuanta))

	hp, err := openDir(killScanCfg(dir))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	commitChains(t, hp, os.Getenv(envAcks), scanChains, scanChainLen, 1)

	// Promote the chains, flip concurrently, pace the scan, die mid-scan.
	if _, err := hp.CollectVolatile(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	hp.StartStableCollection()
	for i := 0; i < quanta; i++ {
		if !hp.StepStableScan() {
			break
		}
	}
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	t.Fatal("unreachable: SIGKILL did not take")
}

// commitChains commits, as generation lastAck+1, chains lists of length
// nodes of ndata data words into root slots 2.., node i of chain w holding
// gen*1000+w*100+i, and acknowledges the generation with an fsync.
func commitChains(t *testing.T, hp *core.Heap, acksPath string, chains, length, ndata int) {
	t.Helper()
	gen := lastAck(t, acksPath) + 1
	tr := hp.Begin()
	for w := 0; w < chains; w++ {
		var head *core.Ref
		for i := length - 1; i >= 0; i-- {
			n, err := tr.Alloc(4, 1, ndata)
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			if err := tr.SetData(n, 0, gen*1000+uint64(w)*100+uint64(i)); err != nil {
				t.Fatal(err)
			}
			if err := tr.SetPtr(n, 0, head); err != nil {
				t.Fatal(err)
			}
			head = n
		}
		if err := tr.SetRoot(2+w, head); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatalf("commit gen %d: %v", gen, err)
	}
	acks, err := os.OpenFile(acksPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("child acks: %v", err)
	}
	if _, err := fmt.Fprintf(acks, "%d\n", gen); err != nil {
		t.Fatalf("ack write: %v", err)
	}
	if err := acks.Sync(); err != nil {
		t.Fatalf("ack sync: %v", err)
	}
}

// auditChains walks every chain commitChains wrote for generation gen,
// through whichever semispace a resumed collection left each node in.
func auditChains(t *testing.T, hp *core.Heap, gen uint64, chains, length int) {
	t.Helper()
	tr := hp.Begin()
	defer tr.Abort()
	for w := 0; w < chains; w++ {
		c, err := tr.Root(2 + w)
		if err != nil {
			t.Fatalf("gen %d chain %d: root: %v", gen, w, err)
		}
		for i := 0; i < length; i++ {
			if c == nil {
				t.Fatalf("gen %d chain %d: truncated at node %d", gen, w, i)
			}
			v, err := tr.Data(c, 0)
			if err != nil {
				t.Fatalf("gen %d chain %d node %d: %v", gen, w, i, err)
			}
			if want := gen*1000 + uint64(w)*100 + uint64(i); v != want {
				t.Fatalf("gen %d chain %d node %d: value %d, want %d", gen, w, i, v, want)
			}
			if c, err = tr.Ptr(c, 0); err != nil {
				t.Fatalf("gen %d chain %d node %d: next: %v", gen, w, i, err)
			}
		}
		if c != nil {
			t.Fatalf("gen %d chain %d: trailing node after recovery", gen, w)
		}
	}
}

// TestKillPointStableScan SIGKILLs a child mid-concurrent-stable-scan over
// a real filestore, across a matrix of seeds and paced quantum counts.
// After each kill the parent recovers the directory — the collection comes
// back in flight at the exact quantum the child reached — audits every
// acknowledged chain through the transporting read barrier, retires the
// resumed scan, audits again, and hands the directory to the next cycle's
// child, which flips the stable area afresh over the survivor objects.
func TestKillPointStableScan(t *testing.T) {
	if os.Getenv(envDir) != "" {
		t.Skip("inside subprocess")
	}
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()
			heapDir := filepath.Join(base, "heap")
			acksPath := filepath.Join(base, "acks.txt")
			for cycle := 0; cycle < 2; cycle++ {
				quanta := 1 + (seed*3+cycle*5)%7
				runChildToSIGKILL(t, "^TestKillPointStableScanChild$", heapDir, acksPath, fmt.Sprintf("%s=%d", envQuanta, quanta))

				gen := lastAck(t, acksPath)
				if gen == 0 {
					t.Fatalf("cycle %d: child died before acknowledging its commit", cycle)
				}
				hp, err := openDir(killScanCfg(heapDir))
				if err != nil {
					t.Fatalf("cycle %d (quanta=%d): recover: %v", cycle, quanta, err)
				}
				auditChains(t, hp, gen, scanChains, scanChainLen)
				for hp.StepStableScan() {
				}
				hp.FinishStableScan()
				auditChains(t, hp, gen, scanChains, scanChainLen)
				hp.Close()
			}
		})
	}
}

// runChildToSIGKILL re-execs the named child test with env set and
// requires it to die by its own SIGKILL.
func runChildToSIGKILL(t *testing.T, run, heapDir, acksPath string, env ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run="+run)
	cmd.Env = append(append(os.Environ(), envDir+"="+heapDir, envAcks+"="+acksPath), env...)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("child %v did not die at the kill point: err=%v\n%s", env, err, out)
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child %v exited without the SIGKILL: %v\n%s", env, err, out)
	}
}

// runChildToKill re-execs this test binary as the kill-point child and
// requires it to die at the kill point (exit code killExitCode).
func runChildToKill(t *testing.T, heapDir, acksPath string, killOp, mode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillPointChild$")
	cmd.Env = append(os.Environ(),
		envDir+"="+heapDir,
		envAcks+"="+acksPath,
		fmt.Sprintf("%s=%d", envOp, killOp),
		fmt.Sprintf("%s=%d", envMode, mode),
	)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != killExitCode {
		t.Fatalf("child (op=%d mode=%d) did not die at the kill point: err=%v\n%s", killOp, mode, err, out)
	}
}

// --- Coordinator kill points -------------------------------------------
//
// The 2PC analog of the kill-point matrix: a child process runs a
// file-backed partitioned cluster (internal/shard) and SIGKILLs itself
// mid-protocol — either with every branch force-prepared but no decision
// logged (presumed abort must roll the global transaction back on every
// partition), or right after the coordinator forced its commit decision
// and before any participant branch committed (recovery must commit it on
// every partition). The kill happens inside the crash hook on the
// committing goroutine, so the unforced WAL tails and the dirty vm pools
// die with the process and the audit rests on real fsync ordering:
// participant prepares and the coordinator decision are the only durable
// facts.

const (
	kill2PCModePrepare = 0 // all prepared, no decision → abort everywhere
	kill2PCModeDecide  = 1 // decision forced, no fan-out → commit everywhere
)

func kill2PCCfg(dir string) shard.Config {
	return shard.Config{
		Partitions: 3,
		Dir:        dir,
		Part: core.Config{
			CachePages:    killCachePages,
			PageSize:      256,
			StableWords:   8 * 1024,
			VolatileWords: 4 * 1024,
			LogSegBytes:   4 * 1024,
		},
	}
}

// kill2PCSlots picks two root slots on distinct partitions; routing is a
// stable hash, so parent and child agree without coordination.
func kill2PCSlots(cl *shard.Cluster) (int, int) {
	a := 0
	pa := cl.PartitionOf(a)
	for slot := 1; slot < 32; slot++ {
		if cl.PartitionOf(slot) != pa {
			return a, slot
		}
	}
	panic("no two slots on distinct partitions")
}

func read2PCSlot(t *testing.T, cl *shard.Cluster, slot int) (uint64, bool) {
	t.Helper()
	tx := cl.Begin()
	defer tx.Abort()
	ref, err := tx.Root(slot)
	if err != nil {
		t.Fatalf("root %d: %v", slot, err)
	}
	if ref.IsNil() {
		return 0, false
	}
	v, err := tx.Data(ref, 0)
	if err != nil {
		return 0, false // format-time root object, not our counter
	}
	return v, true
}

func transfer2PC(cl *shard.Cluster, from, to int, amt uint64) error {
	tx := cl.Begin()
	fr, err := tx.Root(from)
	if err != nil {
		tx.Abort()
		return err
	}
	tr, err := tx.Root(to)
	if err != nil {
		tx.Abort()
		return err
	}
	fv, err := tx.Data(fr, 0)
	if err != nil {
		tx.Abort()
		return err
	}
	tv, err := tx.Data(tr, 0)
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.SetData(fr, 0, fv-amt); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.SetData(tr, 0, tv+amt); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// lastAckPair returns the last acknowledged "a b" line (0,0 if none).
func lastAckPair(t *testing.T, path string) (uint64, uint64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0
	}
	if err != nil {
		t.Fatal(err)
	}
	var a, b uint64
	for _, line := range splitLines(raw) {
		var x, y uint64
		if _, err := fmt.Sscanf(line, "%d %d", &x, &y); err == nil {
			a, b = x, y
		}
	}
	return a, b
}

// TestKillPointCoordinatorChild is the subprocess body; it skips unless
// re-exec'd.
func TestKillPointCoordinatorChild(t *testing.T) {
	dir := os.Getenv(envDir)
	if dir == "" {
		t.Skip("subprocess body")
	}
	mode, _ := strconv.Atoi(os.Getenv(envMode))

	cl, err := openCluster(kill2PCCfg(dir))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	slotA, slotB := kill2PCSlots(cl)
	acks, err := os.OpenFile(os.Getenv(envAcks), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("child acks: %v", err)
	}
	ack := func(a, b uint64) {
		if _, err := fmt.Fprintf(acks, "%d %d\n", a, b); err != nil {
			t.Fatalf("ack write: %v", err)
		}
		if err := acks.Sync(); err != nil {
			t.Fatalf("ack sync: %v", err)
		}
	}

	// Boot: create the counters on first run.
	va, okA := read2PCSlot(t, cl, slotA)
	vb, okB := read2PCSlot(t, cl, slotB)
	if !okA || !okB {
		for _, s := range []int{slotA, slotB} {
			tx := cl.Begin()
			ref, err := tx.AllocFor(s, 1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.SetData(ref, 0, 100); err != nil {
				t.Fatal(err)
			}
			if err := tx.SetRoot(s, ref); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		va, vb = 100, 100
		ack(va, vb)
	}

	// A few acknowledged cross-partition transfers, then the killed one.
	for i := 0; i < 3; i++ {
		if err := transfer2PC(cl, slotA, slotB, 1); err != nil {
			t.Fatalf("acked transfer %d: %v", i, err)
		}
		va, vb = va-1, vb+1
		ack(va, vb)
	}

	lastPart := cl.PartitionOf(slotA)
	if p := cl.PartitionOf(slotB); p > lastPart {
		lastPart = p
	}
	cl.SetCrashHook(func(pt shard.CrashPoint, part int) bool {
		switch mode {
		case kill2PCModePrepare:
			// Die once every branch is force-prepared, decision unlogged.
			if pt == shard.PointAfterPrepare && part == lastPart {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		case kill2PCModeDecide:
			// Die between the forced decision and the first branch commit.
			if pt == shard.PointAfterDecision {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
		return false
	})
	_ = transfer2PC(cl, slotA, slotB, 7)
	t.Fatal("unreachable: SIGKILL did not take")
}

// TestKillPointCoordinator SIGKILLs the child at both coordinator kill
// points over real files and audits the recovered cluster: with the
// decision forced the transfer must be committed on every partition; with
// only prepares durable, presumed abort must roll it back everywhere —
// and in both cases recovery's resolution pass must leave zero in-doubt
// branches.
func TestKillPointCoordinator(t *testing.T) {
	if os.Getenv(envDir) != "" {
		t.Skip("inside subprocess")
	}
	for _, tc := range []struct {
		name string
		mode int
	}{
		{"prepare-no-decision", kill2PCModePrepare},
		{"decision-before-fanout", kill2PCModeDecide},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()
			heapDir := filepath.Join(base, "cluster")
			acksPath := filepath.Join(base, "acks.txt")
			for cycle := 0; cycle < 2; cycle++ {
				cmd := exec.Command(os.Args[0], "-test.run=^TestKillPointCoordinatorChild$")
				cmd.Env = append(os.Environ(),
					envDir+"="+heapDir,
					envAcks+"="+acksPath,
					fmt.Sprintf("%s=%d", envMode, tc.mode),
				)
				out, err := cmd.CombinedOutput()
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("cycle %d: child did not die at the kill point: err=%v\n%s", cycle, err, out)
				}
				if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					t.Fatalf("cycle %d: child exited without the SIGKILL: %v\n%s", cycle, err, out)
				}

				ackA, ackB := lastAckPair(t, acksPath)
				cl, err := openCluster(kill2PCCfg(heapDir))
				if err != nil {
					t.Fatalf("cycle %d: recover: %v", cycle, err)
				}
				slotA, slotB := kill2PCSlots(cl)
				va, okA := read2PCSlot(t, cl, slotA)
				vb, okB := read2PCSlot(t, cl, slotB)
				if !okA || !okB {
					t.Fatalf("cycle %d: counters missing after recovery", cycle)
				}
				if doubt := cl.InDoubt(); len(doubt) != 0 {
					t.Fatalf("cycle %d: in-doubt branches survive recovery: %v", cycle, doubt)
				}
				m := cl.Metrics()
				switch tc.mode {
				case kill2PCModeDecide:
					if va != ackA-7 || vb != ackB+7 {
						t.Fatalf("cycle %d: decided transfer not applied atomically: %d/%d, acked %d/%d", cycle, va, vb, ackA, ackB)
					}
					if m.Counter("shard_resolved_commits_total") == 0 {
						t.Fatalf("cycle %d: no branch resolved commit (resolution pass skipped?)", cycle)
					}
				case kill2PCModePrepare:
					if va != ackA || vb != ackB {
						t.Fatalf("cycle %d: undecided transfer not rolled back: %d/%d, acked %d/%d", cycle, va, vb, ackA, ackB)
					}
					if m.Counter("shard_resolved_aborts_total") == 0 {
						t.Fatalf("cycle %d: no branch resolved abort (presumed abort skipped?)", cycle)
					}
				}
				if va+vb != ackA+ackB {
					t.Fatalf("cycle %d: money not conserved: %d+%d vs %d+%d", cycle, va, vb, ackA, ackB)
				}
				// The recovered cluster must be fully usable: commit one
				// more acknowledged transfer for the next cycle's child.
				if err := transfer2PC(cl, slotA, slotB, 2); err != nil {
					t.Fatalf("cycle %d: post-recovery transfer: %v", cycle, err)
				}
				cl.Close()
				f, err := os.OpenFile(acksPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(f, "%d %d\n", va-2, vb+2)
				f.Close()
			}
		})
	}
}
