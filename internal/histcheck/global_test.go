package histcheck

import (
	"strings"
	"testing"

	"stableheap/internal/word"
)

// TestCheckGlobalFindsCrossPartitionCycle builds the classic write-skew
// shape split across two partitions: each partition's local history is
// trivially serializable (one variable, one writer), but globally G1 must
// precede G2 (G1 read y before G2 overwrote it) and G2 must precede G1
// (G2 read x before G1 overwrote it). Only the merged DSG closes the
// cycle.
func TestCheckGlobalFindsCrossPartitionCycle(t *testing.T) {
	const x, y = word.Addr(0x100), word.Addr(0x200)
	g1, g2 := word.TxID(1001), word.TxID(1002)

	p0 := NewRecorder() // holds x
	p0.Begin(1)         // local 1 = G1
	p0.Begin(2)         // local 2 = G2
	p0.Read(2, x)
	p0.Write(1, x)
	p0.Commit(1)
	p0.Commit(2)

	p1 := NewRecorder() // holds y
	p1.Begin(1)         // local 1 = G1
	p1.Begin(2)         // local 2 = G2
	p1.Read(1, y)
	p1.Write(2, y)
	p1.Commit(1)
	p1.Commit(2)

	parts := []PartitionHistory{
		{Part: 0, H: p0.History(), GlobalTx: map[word.TxID]word.TxID{1: g1, 2: g2}},
		{Part: 1, H: p1.History(), GlobalTx: map[word.TxID]word.TxID{1: g1, 2: g2}},
	}

	// Each partition alone is serializable.
	for _, p := range parts {
		if err := Check(p.H); err != nil {
			t.Fatalf("partition %d locally unserializable: %v", p.Part, err)
		}
	}
	err := CheckGlobal(parts)
	if err == nil {
		t.Fatal("cross-partition cycle not detected")
	}
	v, ok := err.(*Violation)
	if !ok || len(v.Cycle) == 0 {
		t.Fatalf("want a cycle violation, got %v", err)
	}
}

// TestCheckGlobalRejectsSplitOutcome pins the atomicity half: a 2PC
// transaction visible as committed in one partition and aborted in another
// is a violation even when no DSG cycle exists.
func TestCheckGlobalRejectsSplitOutcome(t *testing.T) {
	g := word.TxID(2001)
	p0 := NewRecorder()
	p0.Begin(1)
	p0.Write(1, 0x100)
	p0.Commit(1)
	p1 := NewRecorder()
	p1.Begin(1)
	p1.Write(1, 0x100)
	p1.Abort(1)

	err := CheckGlobal([]PartitionHistory{
		{Part: 0, H: p0.History(), GlobalTx: map[word.TxID]word.TxID{1: g}},
		{Part: 1, H: p1.History(), GlobalTx: map[word.TxID]word.TxID{1: g}},
	})
	if err == nil {
		t.Fatal("split 2PC outcome not detected")
	}
	if !strings.Contains(err.Error(), "2PC atomicity") {
		t.Fatalf("want a 2PC atomicity violation, got: %v", err)
	}
}

// TestMergeGlobalKeepsAddressesPartitionScoped is the aliasing regression:
// two partitions use the SAME word.Addr for unrelated objects (every
// partition's address space starts at the same base, so address reuse
// across partitions is the norm, not the exception). The merged history
// must keep them distinct variables — no false wr/ww edges — and a move in
// one partition must not rebase the other's variable.
func TestMergeGlobalKeepsAddressesPartitionScoped(t *testing.T) {
	const addr = word.Addr(0x300)

	p0 := NewRecorder()
	p0.Begin(1)
	p0.Write(1, addr)
	p0.Commit(1)
	// Partition 0's collector moves the object; rebasing is local to p0.
	p0.Relocate(word.Moves{{From: addr, To: addr + 0x80, Words: 1}})

	p1 := NewRecorder()
	p1.Begin(1)
	p1.Write(1, addr)
	p1.Commit(1)
	p1.Begin(2)
	p1.Read(2, addr) // must observe p1's local write, never p0's
	p1.Commit(2)

	parts := []PartitionHistory{
		{Part: 0, H: p0.History()},
		{Part: 1, H: p1.History()},
	}
	merged, err := MergeGlobal(parts)
	if err != nil {
		t.Fatal(err)
	}
	vars := make(map[word.TxID]uint32)
	for _, op := range merged.Ops {
		if op.Kind == OpWrite {
			vars[op.Tx] = op.Var
		}
	}
	v0 := vars[word.TxID(1<<48|1)]
	v1 := vars[word.TxID(2<<48|1)]
	if v0 == 0 || v1 == 0 || v0 == v1 {
		t.Fatalf("same address in two partitions must map to distinct merged vars, got %d and %d", v0, v1)
	}
	// The moved-then-reused address in p0 still resolves to p0's var.
	p0.Begin(2)
	p0.Read(2, addr+0x80)
	p0.Commit(2)
	if err := CheckGlobal([]PartitionHistory{
		{Part: 0, H: p0.History()},
		{Part: 1, H: p1.History()},
	}); err != nil {
		t.Fatal(err)
	}
}
