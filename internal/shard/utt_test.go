package shard

import (
	"errors"
	"testing"

	"stableheap/internal/histcheck"
)

// TestAddressReuseAcrossPartitionsNoAliasing is the partition-scoping
// regression for undo translation (wal.AddrPair / the UTT) and histcheck's
// Relocate rebase. Every partition's address space starts at the same base,
// so two partitions allocating in lockstep hand out the SAME addresses for
// unrelated objects. The test freezes a 2PC transaction with its undo
// in flight (prepared, not decided) on partition 1, then drives partition
// 0's stable collector so it moves — and UTT-rebases — partition 0's
// object at the very address partition 1's undo refers to. If either the
// undo translation table or the history rebase were shared across
// partitions, the move would redirect partition 1's in-flight undo and the
// presumed-abort rollback would restore garbage.
func TestAddressReuseAcrossPartitionsNoAliasing(t *testing.T) {
	cfg := Config{Partitions: 2, Part: testConfig()}
	cl, restart, err := openCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHistoryRecorders()

	slots := slotsOnDistinctPartitions(t, cl, 2)
	a, b := slots[0], slots[1] // a on partition 0, b on partition 1

	// Allocate in lockstep so the two counters land on identical addresses
	// in their respective partitions — the aliasing precondition.
	var refA, refB Ref
	{
		tx := cl.Begin()
		refA, err = tx.AllocFor(a, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		refB, err = tx.AllocFor(b, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetData(refA, 0, 111); err != nil {
			t.Fatal(err)
		}
		if err := tx.SetData(refB, 0, 222); err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRoot(a, refA); err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRoot(b, refB); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if refA.Addr() != refB.Addr() {
		t.Logf("note: lockstep allocation gave distinct addresses (%#x vs %#x); aliasing precondition weakened but test still valid", refA.Addr(), refB.Addr())
	}

	// Freeze a 2PC update with both branches prepared: partition 1 now
	// holds an in-flight undo for its object.
	cl.SetCrashHook(func(pt CrashPoint, part int) bool {
		return pt == PointAfterPrepare && part == 1
	})
	if err := transfer(cl, a, b, 11); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("transfer: got %v, want ErrInterrupted", err)
	}
	cl.SetCrashHook(nil)

	// Partition 0's collector relocates its objects; any shared UTT or
	// shared Relocate rebase would now redirect partition 1's undo address.
	cl.Partition(0).CollectStable()

	// Crash and recover: no durable decision, so presumed abort must
	// restore both counters exactly.
	cl.Crash()
	rec, err := restart()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	if doubt := rec.InDoubt(); len(doubt) != 0 {
		t.Fatalf("in-doubt branches survive resolution: %v", doubt)
	}
	if got := readCounter(t, rec, a); got != 111 {
		t.Fatalf("partition 0 counter = %d, want 111 (undo aliased across partitions?)", got)
	}
	if got := readCounter(t, rec, b); got != 222 {
		t.Fatalf("partition 1 counter = %d, want 222 (undo aliased across partitions?)", got)
	}

	// The recorded histories — including partition 0's Relocate rebases —
	// must merge without false cross-partition conflicts.
	if err := histcheck.CheckGlobal(cl.GlobalHistories()); err != nil {
		t.Fatalf("global history check: %v", err)
	}
}
