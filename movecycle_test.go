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

// TestMoveCycleTornAtEveryRecord crashes a move cycle at every cut a torn
// tail can make in it. A module is built (every object newly stable, still
// in the volatile area) and one volatile collection moves it into the
// stable area: one V2SCopy record — every move, the moved objects' slots
// translated, the fixes of the slots that named them — and the VFlip
// record. The log is torn before the V2SCopy record, inside it, after it
// and after the VFlip record. A torn tail keeps the cycle whole or drops it
// whole, and recovery must leave the module traversing whole, every object
// reached once at one address (a move the log kept is not repeated
// elsewhere), no slot naming the volatile area, and a stable collection
// must run over the result. The concurrent leg runs the cycle with a
// concurrent stable collection in flight, so the moves land at the high
// end of its to-space one object at a time and the record carries one
// destination run per object.
func TestMoveCycleTornAtEveryRecord(t *testing.T) {
	for _, leg := range []struct {
		name     string
		mode     stableheap.GCMode
		inFlight bool
	}{
		{"ellis", stableheap.Ellis, false},
		{"concurrent", stableheap.Concurrent, true},
	} {
		t.Run(leg.name, func(t *testing.T) { tornMoveCycle(t, leg.mode, leg.inFlight) })
	}
}

func tornMoveCycle(t *testing.T, mode stableheap.GCMode, inFlight bool) {
	cfg := stableheap.DefaultConfig()
	cfg.NurseryBytes = -1
	cfg.StableGC = mode
	cfg.ManualScan = true
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
		if inFlight {
			h.StartStableCollection()
			h.StepStableScan()
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
	var cycle wal.V2SCopyRec
	cycles := 0
	storage.Scan(dev, start, false, func(lsn word.LSN, frame []byte) bool {
		cuts = append(cuts, lsn)
		if rec, err := wal.Decode(frame); err == nil && rec.Type() == wal.TV2SCopy {
			cycle = rec.(wal.V2SCopyRec)
			cycles++
			cuts = append(cuts, lsn+word.LSN(len(frame)/2)) // torn inside the record
		}
		return true
	})
	cuts = append(cuts, dev.EndLSN())
	h.Close()
	if cycles != 1 || len(cycle.From) == 0 {
		t.Fatalf("the cycle logged %d V2SCopy records, want one that moves the module", cycles)
	}
	if inFlight && len(cycle.Runs) < 2 {
		t.Fatalf("the cycle's %d moves landed in %d destination runs: the high end took them end to end", len(cycle.From), len(cycle.Runs))
	}
	t.Logf("%d cuts over %d records; the V2SCopy record moves %d objects in %d runs and fixes %d slots",
		len(cuts), len(cuts)-2, len(cycle.From), len(cycle.Runs), len(cycle.Fixes))

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
		if n := reachable(t, h2, stableEnd); n != shape.Objects() {
			t.Fatalf("cut at %d, after a stable collection: %d distinct objects reachable, want %d", cut, n, shape.Objects())
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
