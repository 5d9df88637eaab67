package stableheap_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"stableheap"
	"stableheap/internal/storage"
	"stableheap/internal/wal"
	"stableheap/internal/word"
	"stableheap/internal/workload"
)

// buildModule builds an OO7 module through Chapter 5's whole path — commit,
// track (base records), nursery minor, move (V2SCopy), fix (SFix) — then
// collects the volatile area so every tracked object has moved, and
// checkpoints.
func buildModule(tb testing.TB, h *stableheap.Heap, shape workload.OO7Config) {
	tb.Helper()
	if _, err := workload.BuildOO7(h, 0, shape, rand.New(rand.NewSource(30))); err != nil {
		tb.Fatal(err)
	}
	if _, err := h.CollectVolatile(); err != nil {
		tb.Fatal(err)
	}
	h.Checkpoint()
}

// TestSetupCounts pins what a newly stable object costs the log. The
// paper's fix-up record is one per page (Ch. 3: "{page, (slot → new
// pointer)…}"), and the volatile collector's move drain keeps one batch
// open across all the objects it moves. So one move cycle — here the only
// one: no nursery, and a volatile area that holds the module — logs at most
// one SFix record per stable page it moved objects into, against one per
// moved object when each object closed its own batch; the remembered stable
// slots it fixes first (the root's) take one more per page. The base and
// move records are logged per run of objects that lie end to end, not per
// object, so per tracked object the log takes a fraction of a record: the
// fixes, the runs and the transactions' own records (≈ 3.0 with a base, a
// move and a fix record per object; ≈ 2.07 with one fix per page).
func TestSetupCounts(t *testing.T) {
	cfg := stableheap.DefaultConfig()
	cfg.NurseryBytes = -1
	cfg.VolatileWords = 64 << 10
	cfg.StableWords = 256 << 10
	h := stableheap.Open(cfg)
	defer h.Close()
	buildModule(t, h, workload.OO7Config{Assemblies: 16, Composites: 16, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3})
	m := h.Metrics()
	if n := m.Counter("vgc_collections_total"); n != 1 {
		t.Fatalf("%d volatile collections, want the one CollectVolatile", n)
	}

	// A fix record belongs to the drain if its slots lie in a moved object.
	ps := cfg.PageSize
	var moved []wal.V2SCopyRec
	movedInto := make(map[word.PageID]bool)
	drainFixes, bases := 0, 0
	otherFixes := make(map[word.PageID]int)
	storage.Scan(h.Internal().Log().Device(), 1, false, func(_ word.LSN, frame []byte) bool {
		rec, err := wal.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		switch r := rec.(type) {
		case wal.BaseRec:
			bases++
		case wal.V2SCopyRec:
			moved = append(moved, r)
			for pg := r.To.Page(ps); pg <= (r.To + word.Addr(len(r.Object)) - 1).Page(ps); pg++ {
				movedInto[pg] = true
			}
		case wal.SFixRec:
			slot := r.Fixes[0].Addr
			i := sort.Search(len(moved), func(i int) bool { return moved[i].To > slot }) - 1
			if i >= 0 && slot < moved[i].To+word.Addr(len(moved[i].Object)) {
				drainFixes++
			} else {
				otherFixes[r.Page]++
			}
		}
		return true
	})
	if len(movedInto) == 0 {
		t.Fatal("the build moved nothing into the stable area")
	}
	if drainFixes > len(movedInto) {
		t.Errorf("%d SFix records for the slots of objects moved into %d stable pages: more than one per page", drainFixes, len(movedInto))
	}
	for pg, n := range otherFixes {
		if n > 1 {
			t.Errorf("%d SFix records for remembered slots on page %d, want one", n, pg)
		}
	}
	appends, tracked := m.Counter("wal_appends_total"), m.Counter("track_objects_total")
	if perObj := float64(appends) / float64(tracked); perObj > 0.2 {
		t.Errorf("%d appends for %d tracked objects: %.3f per object, want ≤ 0.2", appends, tracked, perObj)
	}
	t.Logf("%d base and %d V2SCopy runs, %d + %d SFix records, %d pages moved into, %d appends for %d tracked objects",
		bases, len(moved), drainFixes, len(otherFixes), len(movedInto), appends, tracked)
}

// BenchmarkSetupDir times a heap's set-up on real files — OpenDir, a 32×32
// OO7 module, CollectVolatile and Checkpoint, the large crash-recover
// heap's ballast — per object built, with the log records per object and
// the log segment files the set-up left.
func BenchmarkSetupDir(b *testing.B) {
	shape := workload.OO7Config{Assemblies: 32, Composites: 32, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}
	var appends, segments int64
	for i := 0; i < b.N; i++ {
		cfg := stableheap.DefaultConfig()
		cfg.Dir = b.TempDir()
		cfg.StableWords = 1 << 20
		h, err := stableheap.OpenDir(cfg)
		if err != nil {
			b.Fatal(err)
		}
		buildModule(b, h, shape)
		appends += h.Metrics().Counter("wal_appends_total")
		b.StopTimer()
		segs, err := filepath.Glob(filepath.Join(cfg.Dir, "log", "*.seg"))
		if err != nil {
			b.Fatal(err)
		}
		segments += int64(len(segs))
		h.Close()
		os.RemoveAll(cfg.Dir)
		b.StartTimer()
	}
	objects := float64(shape.Objects()) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/objects, "ns/object")
	b.ReportMetric(float64(appends)/objects, "appends/object")
	b.ReportMetric(float64(segments)/float64(b.N), "segments")
}
