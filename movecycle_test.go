package stableheap_test

import (
	"math/rand"
	"testing"

	"stableheap"
	"stableheap/internal/storage"
	"stableheap/internal/wal"
	"stableheap/internal/word"
	"stableheap/internal/workload"
)

// TestMoveCycleTornAtEveryRecord crashes a move cycle at every record
// boundary. A module is built (every object newly stable, still in the
// volatile area), one volatile collection moves it into the stable area —
// V2SCopy runs, the SFix records for the moved objects' slots, the VFlip
// record — and the log is torn before each of the cycle's records in turn,
// and after the last. Recovery must finish whatever the cut left: the module
// traverses whole, every object is reached once at one address (a move the
// log kept is not repeated elsewhere), no slot names the volatile area, and
// a stable collection runs over the result.
func TestMoveCycleTornAtEveryRecord(t *testing.T) {
	cfg := stableheap.DefaultConfig()
	cfg.NurseryBytes = -1
	shape := workload.OO7Config{Assemblies: 4, Composites: 4, AtomsPerComp: 6, DocWords: 4, ConnPerAtom: 2}
	stableEnd := word.Addr(cfg.PageSize + word.WordsToBytes(2*cfg.StableWords))
	// run builds the module, runs the move cycle and returns the log's
	// device and the LSN the cycle's first record took.
	run := func() (*stableheap.Heap, *workload.OO7, *storage.Log, word.LSN) {
		h := stableheap.Open(cfg)
		o, err := workload.BuildOO7(h, 0, shape, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		dev := h.Log().Device()
		start := dev.EndLSN()
		if _, err := h.CollectVolatile(); err != nil {
			t.Fatal(err)
		}
		return h, o, dev, start
	}

	h, _, dev, start := run()
	var cuts []word.LSN
	runs := 0
	storage.Scan(dev, start, false, func(lsn word.LSN, frame []byte) bool {
		cuts = append(cuts, lsn)
		if rec, err := wal.Decode(frame); err == nil && rec.Type() == wal.TV2SCopy {
			runs++
		}
		return true
	})
	cuts = append(cuts, dev.EndLSN())
	h.Close()
	if runs < 2 {
		t.Fatalf("the cycle logged %d V2SCopy runs: too few to cut between", runs)
	}
	t.Logf("%d cuts over %d records, %d of them V2SCopy runs", len(cuts), len(cuts)-1, runs)

	for _, cut := range cuts {
		h, o, dev, s := run()
		if s != start {
			t.Fatalf("the cycle began at LSN %d, not %d: the build is not deterministic", s, start)
		}
		dev.CrashTorn(cut)
		disk, logDev := h.Crash()
		h2, err := stableheap.Recover(cfg, disk, logDev)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		o.Reattach(h2)
		if err := o.Check(); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if n := reachable(t, h2, stableEnd); n != shape.Objects() {
			t.Fatalf("cut at %d: %d distinct objects reachable, want the module's %d", cut, n, shape.Objects())
		}
		h2.CollectStable()
		if err := o.Check(); err != nil {
			t.Fatalf("cut at %d, after a stable collection: %v", cut, err)
		}
		h2.Close()
	}
}

// reachable counts the distinct objects reachable from root slot 0 and
// fails if any lies at or beyond stableEnd, in the volatile area.
func reachable(t *testing.T, h *stableheap.Heap, stableEnd word.Addr) int {
	t.Helper()
	tx := h.Begin()
	defer tx.Abort()
	seen := make(map[word.Addr]bool)
	root, err := tx.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := []*stableheap.Ref{root}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r == nil || seen[r.Addr()] {
			continue
		}
		if r.Addr() >= stableEnd {
			t.Fatalf("a stable slot names %v in the volatile area", r.Addr())
		}
		seen[r.Addr()] = true
		_, nptrs, _, err := tx.Shape(r)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nptrs; i++ {
			p, err := tx.Ptr(r, i)
			if err != nil {
				t.Fatal(err)
			}
			stack = append(stack, p)
		}
	}
	return len(seen)
}
