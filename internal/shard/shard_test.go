package shard

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"stableheap/internal/core"
	"stableheap/internal/storage"
	"stableheap/internal/wal"
)

// testConfig mirrors the chaos discipline: one huge segment so truncation
// never interferes with a test's replay window.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LogSegBytes = 1 << 30
	return cfg
}

func openTest(t *testing.T, partitions int) *Cluster {
	t.Helper()
	cl, _, err := openCluster(Config{Partitions: partitions, Part: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// openCluster opens the cluster cfg lays out (BackingsFor) and returns it
// with its restart: Open over the same backings.
func openCluster(cfg Config) (*Cluster, func() (*Cluster, error), error) {
	parts, coord, err := BackingsFor(cfg)
	if err != nil {
		return nil, nil, err
	}
	cl, err := Open(cfg, parts, coord)
	return cl, func() (*Cluster, error) { return Open(cfg, parts, coord) }, err
}

// slotsOnDistinctPartitions returns n root slots, each on a different
// partition (the routing hash spreads the 32 default slots widely).
func slotsOnDistinctPartitions(t *testing.T, cl *Cluster, n int) []int {
	t.Helper()
	seen := make(map[int]int)
	for slot := 0; slot < 32 && len(seen) < n; slot++ {
		p := cl.PartitionOf(slot)
		if _, ok := seen[p]; !ok {
			seen[p] = slot
		}
	}
	if len(seen) < n {
		t.Fatalf("could not find %d slots on distinct partitions", n)
	}
	out := make([]int, 0, n)
	for p := 0; p < cl.Partitions() && len(out) < n; p++ {
		if slot, ok := seen[p]; ok {
			out = append(out, slot)
		}
	}
	return out
}

func setCounter(t *testing.T, cl *Cluster, slot int, val uint64) {
	t.Helper()
	tx := cl.Begin()
	r, err := tx.AllocFor(slot, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetData(r, 0, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRoot(slot, r); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readCounter(t *testing.T, cl *Cluster, slot int) uint64 {
	t.Helper()
	tx := cl.Begin()
	r, err := tx.Root(slot)
	if err != nil {
		t.Fatal(err)
	}
	if r.IsNil() {
		t.Fatalf("slot %d has no counter", slot)
	}
	v, err := tx.Data(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return v
}

// transfer moves amt between two counters in one cluster transaction —
// cross-partition when the slots route to different heaps.
func transfer(cl *Cluster, from, to int, amt uint64) error {
	tx := cl.Begin()
	fr, err := tx.Root(from)
	if err != nil {
		return err
	}
	tr, err := tx.Root(to)
	if err != nil {
		return err
	}
	fv, err := tx.Data(fr, 0)
	if err != nil {
		return err
	}
	tv, err := tx.Data(tr, 0)
	if err != nil {
		return err
	}
	if err := tx.SetData(fr, 0, fv-amt); err != nil {
		return err
	}
	if err := tx.SetData(tr, 0, tv+amt); err != nil {
		return err
	}
	return tx.Commit()
}

func TestClusterSingleAndCrossPartition(t *testing.T) {
	cl := openTest(t, 2)
	defer cl.Close()

	slots := slotsOnDistinctPartitions(t, cl, 2)
	a, b := slots[0], slots[1]
	setCounter(t, cl, a, 100)
	setCounter(t, cl, b, 100)

	if err := transfer(cl, a, b, 30); err != nil {
		t.Fatalf("cross-partition transfer: %v", err)
	}
	if got := readCounter(t, cl, a); got != 70 {
		t.Fatalf("slot %d = %d, want 70", a, got)
	}
	if got := readCounter(t, cl, b); got != 130 {
		t.Fatalf("slot %d = %d, want 130", b, got)
	}

	m := cl.Metrics()
	if got := m.Counter("shard_2pc_commits_total"); got != 1 {
		t.Fatalf("shard_2pc_commits_total = %d, want 1", got)
	}
	if m.Counter("shard_single_part_commits_total") == 0 {
		t.Fatal("single-partition commits not counted")
	}
	if got := m.Counter("shard_partitions"); got != 2 {
		t.Fatalf("shard_partitions = %d, want 2", got)
	}
}

func TestCrossPartitionPointerRejected(t *testing.T) {
	cl := openTest(t, 2)
	defer cl.Close()

	tx := cl.Begin()
	r0, err := tx.AllocAt(0, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := tx.AllocAt(1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetPtr(r0, 0, r1); !errors.Is(err, ErrCrossPartition) {
		t.Fatalf("SetPtr across partitions: got %v, want ErrCrossPartition", err)
	}
	// A root slot only accepts objects from its home partition.
	slot := 0
	wrong := r0
	if cl.PartitionOf(slot) == 0 {
		wrong = r1
	}
	if err := tx.SetRoot(slot, wrong); !errors.Is(err, ErrCrossPartition) {
		t.Fatalf("SetRoot across partitions: got %v, want ErrCrossPartition", err)
	}
	tx.Abort()
}

// TestTwoPCCrashMatrix crashes the whole cluster at every 2PC protocol
// point and checks the recovered outcome is atomic and matches presumed
// abort: no durable commit decision → both sides roll back; durable
// decision → both sides commit, even when only one branch had applied it.
func TestTwoPCCrashMatrix(t *testing.T) {
	cases := []struct {
		point  CrashPoint
		commit bool
	}{
		{PointBeforePrepare, false},
		{PointAfterPrepare, false}, // first branch prepared, no decision
		{PointAfterDecision, true},
		{PointAfterFanout, true}, // first branch committed, second in doubt
	}
	for _, tc := range cases {
		t.Run(tc.point.String(), func(t *testing.T) {
			cfg := Config{Partitions: 2, Part: testConfig()}
			cl, restart, err := openCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			slots := slotsOnDistinctPartitions(t, cl, 2)
			a, b := slots[0], slots[1]
			setCounter(t, cl, a, 100)
			setCounter(t, cl, b, 100)

			fired := false
			cl.SetCrashHook(func(pt CrashPoint, part int) bool {
				if pt == tc.point && !fired {
					fired = true
					return true
				}
				return false
			})
			if err := transfer(cl, a, b, 30); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("transfer: got %v, want ErrInterrupted", err)
			}
			if !fired {
				t.Fatalf("crash hook at %v never fired", tc.point)
			}

			cl.Crash()
			rec, err := restart()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer rec.Close()
			if doubt := rec.InDoubt(); len(doubt) != 0 {
				t.Fatalf("in-doubt branches survive resolution: %v", doubt)
			}
			va, vb := readCounter(t, rec, a), readCounter(t, rec, b)
			if va+vb != 200 {
				t.Fatalf("money not conserved: %d + %d", va, vb)
			}
			if tc.commit && (va != 70 || vb != 130) {
				t.Fatalf("decided commit not applied everywhere: %d/%d", va, vb)
			}
			if !tc.commit && (va != 100 || vb != 100) {
				t.Fatalf("undecided tx not fully rolled back: %d/%d", va, vb)
			}
		})
	}
}

// TestClusterDirPersistence covers the file-backed lifecycle: a cluster
// closed cleanly and reopened keeps every partition's data and the router
// still finds it.
func TestClusterDirPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Partitions: 3, Part: testConfig(), Dir: dir}
	cl, _, err := openCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := slotsOnDistinctPartitions(t, cl, 3)
	for i, slot := range slots {
		setCounter(t, cl, slot, uint64(1000+i))
	}
	if err := transfer(cl, slots[0], slots[1], 5); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	re, _, err := openCluster(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := readCounter(t, re, slots[0]); got != 995 {
		t.Fatalf("slot %d = %d, want 995", slots[0], got)
	}
	if got := readCounter(t, re, slots[1]); got != 1006 {
		t.Fatalf("slot %d = %d, want 1006", slots[1], got)
	}
	if got := readCounter(t, re, slots[2]); got != 1002 {
		t.Fatalf("slot %d = %d, want 1002", slots[2], got)
	}
}

// TestCrashPartitionFileBacked: one partition of a file-backed cluster
// crashes (which closes that partition's files) and recovers in place from
// its directory while the others keep running; committed data survives on
// every partition, the recovered one takes new commits, and the cluster
// still closes and reopens cleanly — the recovered heap owns its files.
func TestCrashPartitionFileBacked(t *testing.T) {
	cfg := Config{Partitions: 3, Part: testConfig(), Dir: t.TempDir()}
	cl, _, err := openCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := slotsOnDistinctPartitions(t, cl, 3)
	for i, slot := range slots {
		setCounter(t, cl, slot, uint64(1000+i))
	}
	for round := 0; round < 3; round++ {
		if err := cl.CrashPartition(cl.PartitionOf(slots[0])); err != nil {
			t.Fatalf("round %d: CrashPartition: %v", round, err)
		}
		if err := transfer(cl, slots[0], slots[1], 5); err != nil {
			t.Fatalf("round %d: cross-partition transfer after recovery: %v", round, err)
		}
	}
	cl.Close()

	re, _, err := openCluster(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for i, want := range []uint64{985, 1016, 1002} {
		if got := readCounter(t, re, slots[i]); got != want {
			t.Fatalf("slot %d = %d, want %d", slots[i], got, want)
		}
	}
}

// TestClusterRefusesOtherPartitionCount: the partition count routes every
// slot, so a cluster reopened with another count is refused by name — over
// files and in memory — instead of opening with most of its roots routed to
// partitions that never held them. The right count reopens it whole.
func TestClusterRefusesOtherPartitionCount(t *testing.T) {
	for name, dir := range map[string]string{"memory": "", "dir": t.TempDir()} {
		cfg := Config{Partitions: 3, Part: testConfig(), Dir: dir}
		parts, coord, err := BackingsFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Open(cfg, parts, coord)
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 6; slot++ {
			setCounter(t, cl, slot, uint64(10+slot))
		}
		cl.Close()
		two := cfg
		two.Partitions = 2
		if _, err := Open(two, parts[:2], coord); err == nil || !strings.Contains(err.Error(), "3 partitions") {
			t.Fatalf("%s: reopened with 2 partitions: %v, want a refusal naming the 3 it has", name, err)
		}
		re, err := Open(cfg, parts, coord)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		for slot := 0; slot < 6; slot++ {
			if got := readCounter(t, re, slot); got != uint64(10+slot) {
				t.Fatalf("%s: slot %d = %d after reopen, want %d", name, slot, got, 10+slot)
			}
		}
		re.Close()
	}
}

// TestRoutingStable pins the routing hash: placement is durable, so the
// slot → partition map must never change across processes or releases.
func TestRoutingStable(t *testing.T) {
	cl := openTest(t, 4)
	defer cl.Close()
	for slot := 0; slot < 32; slot++ {
		p := cl.PartitionOf(slot)
		if p != int(mix64(uint64(slot))%4) {
			t.Fatalf("slot %d routed to %d", slot, p)
		}
		if p < 0 || p >= 4 {
			t.Fatalf("slot %d routed out of range: %d", slot, p)
		}
	}
	// All partitions get some slots (sanity on hash spread).
	hit := make(map[int]bool)
	for slot := 0; slot < 32; slot++ {
		hit[cl.PartitionOf(slot)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("32 slots landed on only %d of 4 partitions", len(hit))
	}
}

// TestOpenValidateRejects: a partition template core.Config.Validate refuses
// comes back as Open's error, in memory and over files.
func TestOpenValidateRejects(t *testing.T) {
	bad := testConfig()
	bad.Undivided, bad.ConcurrentVGC = true, true
	for name, cfg := range map[string]Config{
		"memory": {Part: bad},
		"dir":    {Part: bad, Dir: t.TempDir()},
	} {
		if _, _, err := openCluster(cfg); err == nil || !strings.Contains(err.Error(), "Config.ConcurrentVGC") {
			t.Fatalf("%s: error %v does not name the field", name, err)
		}
	}
}

// TestCoordinatorReadsEveryRecordType: restoring the coordinator from a log
// that holds one record of a 2PC type leaves other state than restoring it
// from an empty log — the coordinator's half of the record-type audit in
// recovery's TestLogAuditEveryTypeIsRead.
func TestCoordinatorReadsEveryRecordType(t *testing.T) {
	parts := []wal.TwoPCParticipant{{Part: 1, TxID: 9}}
	for _, rec := range []wal.Record{
		wal.TwoPCBeginRec{GID: 4, Parts: parts},                // the gid counter
		wal.TwoPCDecideRec{GID: 4, Commit: true, Parts: parts}, // the decisions
		wal.TwoPCEndRec{GID: 4},                                // the finished gids
	} {
		log := storage.NewLog(0)
		m := wal.NewManager(log)
		m.Force(m.Append(rec))
		c, empty := recoverCoordinator(log), recoverCoordinator(storage.NewLog(0))
		if reflect.DeepEqual(c.commits, empty.commits) && reflect.DeepEqual(c.decided, empty.decided) &&
			reflect.DeepEqual(c.ended, empty.ended) && c.nextGID == empty.nextGID {
			t.Errorf("%v: the coordinator restores nothing from it", rec.Type())
		}
	}
}
