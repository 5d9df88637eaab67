package histcheck

import (
	"strings"
	"testing"

	"stableheap/internal/word"
)

const (
	x = word.Addr(0x100)
	y = word.Addr(0x108)
)

func mustViolate(t *testing.T, r *Recorder, want string) *Violation {
	t.Helper()
	err := Check(r.History())
	if err == nil {
		t.Fatalf("history must be rejected:\n%s", r.History().String())
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error must be a *Violation, got %T: %v", err, err)
	}
	if want != "" && !strings.Contains(v.Error(), want) {
		t.Fatalf("violation %q must mention %q", v.Error(), want)
	}
	if !strings.Contains(v.Error(), "offending history") {
		t.Fatal("violation must print the offending history")
	}
	return v
}

// Lost update: both transactions read the initial balance, then both write
// back — the second write clobbers the first.
func TestLostUpdateRejected(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Begin(2)
	r.Read(1, x)
	r.Read(2, x)
	r.Write(1, x)
	r.Commit(1)
	r.Write(2, x)
	r.Commit(2)
	v := mustViolate(t, r, "cycle")
	if len(v.Cycle) != 2 {
		t.Fatalf("lost update is a 2-cycle, got %v", v.Cycle)
	}
}

// Non-repeatable read: tx 1 reads x twice and sees two different versions
// because tx 2 wrote and committed in between.
func TestNonRepeatableReadRejected(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Read(1, x) // initial
	r.Begin(2)
	r.Write(2, x)
	r.Commit(2)
	r.Read(1, x) // tx 2's version
	r.Commit(1)
	mustViolate(t, r, "cycle")
}

// Write skew: each transaction reads both variables and writes the one the
// other read — serializable in neither order.
func TestWriteSkewRejected(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Begin(2)
	r.Read(1, x)
	r.Read(1, y)
	r.Read(2, x)
	r.Read(2, y)
	r.Write(1, x)
	r.Write(2, y)
	r.Commit(1)
	r.Commit(2)
	mustViolate(t, r, "cycle")
}

// G1c: a pure wr-dependency cycle — tx 2 reads tx 1's write of x, tx 1
// reads tx 2's write of y, and both commit.
func TestG1cCycleRejected(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Begin(2)
	r.Write(1, x)
	r.Write(2, y)
	r.Read(2, x) // observes tx 1 (uncommitted at this point, commits later)
	r.Read(1, y) // observes tx 2
	r.Commit(1)
	r.Commit(2)
	v := mustViolate(t, r, "cycle")
	if len(v.Cycle) != 2 {
		t.Fatalf("G1c here is a 2-cycle, got %v", v.Cycle)
	}
}

// A read of a version whose writer aborted is a violation on its own.
func TestAbortedReadRejected(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Write(1, x)
	// Simulate a broken lock manager: tx 2 observes tx 1's version while
	// tx 1 is still active, and tx 1 later aborts. Bypass the recorder's
	// abort-popping by reading before the abort.
	r.Begin(2)
	r.Read(2, x)
	r.Abort(1)
	r.Commit(2)
	mustViolate(t, r, "never committed")
}

// A serial history — t1 entirely before t2 — must pass.
func TestSerialHistoryPasses(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Read(1, x)
	r.Write(1, x)
	r.Read(1, y)
	r.Write(1, y)
	r.Commit(1)
	r.Begin(2)
	r.Read(2, x) // tx 1's version
	r.Write(2, x)
	r.Read(2, y)
	r.Write(2, y)
	r.Commit(2)
	if err := Check(r.History()); err != nil {
		t.Fatalf("serial history must pass: %v", err)
	}
}

// Concurrent but conflict-free transactions (disjoint variables) pass.
func TestDisjointConcurrentPasses(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Begin(2)
	r.Read(1, x)
	r.Read(2, y)
	r.Write(1, x)
	r.Write(2, y)
	r.Commit(2)
	r.Commit(1)
	if err := Check(r.History()); err != nil {
		t.Fatalf("disjoint history must pass: %v", err)
	}
}

// An aborted transaction's writes are popped: a later read sees the
// pre-abort version and the history stays serializable.
func TestAbortPopsVersions(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Write(1, x)
	r.Commit(1)
	r.Begin(2)
	r.Write(2, x)
	r.Abort(2)
	r.Begin(3)
	r.Read(3, x)
	r.Commit(3)
	h := r.History()
	if err := Check(h); err != nil {
		t.Fatalf("abort must restore the version stack: %v", err)
	}
	// The final read must have observed tx 1's version, not tx 2's.
	last := h.Ops[len(h.Ops)-2]
	if last.Kind != OpRead || last.FromTx != 1 {
		t.Fatalf("read after abort observed %v, want tx 1's version", last)
	}
}

// Relocate rebases variable identity: ops recorded before and after a
// collector move of the underlying object refer to the same variable.
func TestOnMoveKeepsVarIdentity(t *testing.T) {
	r := NewRecorder()
	r.Begin(1)
	r.Write(1, x)
	r.Commit(1)
	r.Relocate(word.Moves{{From: x, To: y + 0x1000, Words: 1}}) // object moved
	r.Begin(2)
	r.Read(2, y+0x1000)
	r.Commit(2)
	h := r.History()
	if err := Check(h); err != nil {
		t.Fatalf("moved-object history must pass: %v", err)
	}
	read := h.Ops[len(h.Ops)-2]
	if read.FromTx != 1 {
		t.Fatalf("read after move observed %v, want tx 1's version (same var)", read)
	}
	if read.Var != h.Ops[1].Var {
		t.Fatalf("var id changed across move: %d vs %d", read.Var, h.Ops[1].Var)
	}
}

// Interleaved bank transfers that are actually serializable (strict 2PL
// order) must pass — guard against false positives.
func TestInterleavedSerializablePasses(t *testing.T) {
	r := NewRecorder()
	// t1 transfers x->y, commits; t2 reads both afterward but its begin
	// interleaves before t1's commit.
	r.Begin(1)
	r.Begin(2)
	r.Read(1, x)
	r.Write(1, x)
	r.Read(1, y)
	r.Write(1, y)
	r.Commit(1)
	r.Read(2, x)
	r.Read(2, y)
	r.Commit(2)
	if err := Check(r.History()); err != nil {
		t.Fatalf("must pass: %v", err)
	}
}
