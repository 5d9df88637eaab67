package stableheap_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"stableheap"
	"stableheap/internal/storage"
	"stableheap/internal/wal"
	"stableheap/internal/word"
	"stableheap/internal/workload"
)

// buildModule builds an OO7 module through Chapter 5's whole path — commit,
// track (base records), nursery minor, move and fix (V2SCopy) — then
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
// paper logs a move cycle as V2scopy records and S4vscan fix-ups (Figs.
// 5.2–5.3); here one volatile collection — the only one: no nursery, and a
// volatile area that holds the module — is one V2SCopy record carrying
// every moved image with its pointer slots already translated and the fixes
// of the remembered slots that named them, so no SFix record fixes a moved
// object's slot. The base records are logged per run of objects that lie
// end to end, so per tracked object the log takes a fraction of a record,
// and the tracking records come to about two image bytes per byte tracked:
// the base image and the moved one (3.22 when the moved objects' slots were
// fixed by SFix records of their own).
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

	var cycles []wal.V2SCopyRec
	drainFixes, bases := 0, 0
	storage.Scan(h.Log().Device(), 1, false, func(_ word.LSN, frame []byte) bool {
		rec, err := wal.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		switch r := rec.(type) {
		case wal.BaseRec:
			bases++
		case wal.V2SCopyRec:
			cycles = append(cycles, r)
		case wal.SFixRec:
			for _, c := range cycles {
				for _, run := range c.Runs {
					if slot := r.Fixes[0].Addr; slot >= run.To && slot < run.To+word.Addr(run.Bytes) {
						drainFixes++
					}
				}
			}
		}
		return true
	})
	if len(cycles) != 1 || len(cycles[0].From) == 0 {
		t.Fatalf("%d V2SCopy records, want the one cycle's, and it must move the module", len(cycles))
	}
	if drainFixes != 0 {
		t.Errorf("%d SFix records fix the slots of moved objects, want 0", drainFixes)
	}
	appends, tracked := m.Counter("wal_appends_total"), m.Counter("track_objects_total")
	if perObj := float64(appends) / float64(tracked); perObj > 0.02 {
		t.Errorf("%d appends for %d tracked objects: %.3f per object, want ≤ 0.02", appends, tracked, perObj)
	}
	trackBytes, imageBytes := m.Counter("wal_bytes_track_total"), 8*m.Counter("track_words_total")
	if perByte := float64(trackBytes) / float64(imageBytes); perByte > 2.3 {
		t.Errorf("%d tracking log bytes for %d tracked image bytes: %.2f per byte, want ≤ 2.3", trackBytes, imageBytes, perByte)
	}
	t.Logf("%d base runs, one V2SCopy record of %d objects in %d runs with %d fixes (%d B); %d appends for %d tracked objects; %d tracking bytes for %d image bytes",
		bases, len(cycles[0].From), len(cycles[0].Runs), len(cycles[0].Fixes), len(wal.Encode(cycles[0])), appends, tracked, trackBytes, imageBytes)
}

// TestAllocCounts pins what building objects costs the heap's shared
// structures on the configuration we ship: an OO7 module built over
// DefaultConfig stops the heap for at most one allocation in twenty (its
// chunk refills, minors and the commits that track) and takes at most half
// a lock per object (allocation takes none; the tracker locks only what a
// minor moved out of its creator's chunk).
func TestAllocCounts(t *testing.T) {
	h := stableheap.Open(stableheap.DefaultConfig())
	defer h.Close()
	shape := workload.OO7Config{Assemblies: 8, Composites: 8, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}
	before := h.Metrics()
	if _, err := workload.BuildOO7(h, 0, shape, rand.New(rand.NewSource(30))); err != nil {
		t.Fatal(err)
	}
	m := h.Metrics()
	objects := float64(shape.Objects())
	stops := float64(m.Hist("latch_stop_wait_ns").Count - before.Hist("latch_stop_wait_ns").Count)
	allocs := float64(m.Counter("vgc_nursery_alloc_objects_total") - before.Counter("vgc_nursery_alloc_objects_total"))
	acquires := float64(m.Counter("lock_acquires_total") - before.Counter("lock_acquires_total"))
	if allocs != objects {
		t.Fatalf("%v nursery allocations for %v objects", allocs, objects)
	}
	if perAlloc := stops / allocs; perAlloc > 0.05 {
		t.Errorf("%v heap stops for %v allocations: %.3f per allocation, want ≤ 0.05", stops, allocs, perAlloc)
	}
	if perObj := acquires / objects; perObj > 0.5 {
		t.Errorf("%v lock acquisitions for %v objects: %.3f per object, want ≤ 0.5", acquires, objects, perObj)
	}
	t.Logf("%v objects: %v heap stops, %v lock acquisitions, %d rekeys", objects, stops, acquires,
		m.Counter("lock_rekeys_total")-before.Counter("lock_rekeys_total"))
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
