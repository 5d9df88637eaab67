package stableheap_test

import (
	"math/rand"
	"strings"
	"testing"

	"stableheap"
	"stableheap/internal/storage"
	"stableheap/internal/wal"
	"stableheap/internal/workload"
)

// tally returns the records of each type appended since the log's
// counters were last reset.
func tally(h *stableheap.Heap) map[wal.Type]int64 {
	out := make(map[wal.Type]int64)
	for typ := wal.TInvalid + 1; !strings.HasPrefix(typ.String(), "type("); typ++ {
		if n, _ := h.Log().TypeStats(typ); n > 0 {
			out[typ] = n
		}
	}
	return out
}

// TestReadOnlyTraversalLogsNothing: read-only transactions log nothing —
// no begin, abort or end record, and no page-fetch record per vm miss. Over
// twenty full traversals of a 32×32 OO7 module through a 64-page cache the
// log takes only the end-writes of the dirty pages the traversals evict,
// one per vm flush.
func TestReadOnlyTraversalLogsNothing(t *testing.T) {
	cfg := stableheap.DefaultConfig()
	cfg.StableWords = 1 << 20
	cfg.CachePages = 64
	h := stableheap.Open(cfg)
	defer h.Close()
	o, err := workload.BuildOO7(h, 0, workload.OO7Config{Assemblies: 32, Composites: 32, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	h.Log().ResetStats()
	flushes0, fetches0 := h.Metrics().Counter("cache_flushes_total"), h.Metrics().Counter("cache_fetches_total")
	for i := 0; i < 20; i++ {
		if _, err := o.TraverseT1(); err != nil {
			t.Fatal(err)
		}
	}
	flushes := h.Metrics().Counter("cache_flushes_total") - flushes0
	fetches := h.Metrics().Counter("cache_fetches_total") - fetches0
	if fetches == 0 || flushes == 0 {
		t.Fatalf("%d fetches and %d flushes: the traversals must miss and evict pages the build dirtied", fetches, flushes)
	}
	got := tally(h)
	if n := got[wal.TEndWrite]; n != flushes {
		t.Errorf("%d end-write records for %d vm flushes, want one each", n, flushes)
	}
	delete(got, wal.TEndWrite)
	if len(got) != 0 {
		t.Errorf("20 read-only traversals appended %v, want end-writes only", got)
	}
	t.Logf("%d vm fetches, %d flushes", fetches, flushes)
}

// TestOpenReaderPinsNoLog: a read-only transaction open across 8 000
// transfers, four checkpoints and a truncation holds no log back — it has
// logged nothing, so the checkpoints leave it out of their tables.
func TestOpenReaderPinsNoLog(t *testing.T) {
	h := stableheap.Open(stableheap.DefaultConfig())
	defer h.Close()
	bank, err := workload.NewBank(h, 0, 256, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	reader := h.Begin()
	if _, err := reader.Root(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if _, err := bank.RunMix(rng, 8000, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // each checkpoint cleans what the last one saw dirty
		h.Checkpoint()
		if err := bank.Transfer(0, 1, 1); err != nil { // promotes it
			t.Fatal(err)
		}
	}
	h.TruncateLog()
	dev := h.Log().Device()
	if got := dev.RetainedBytes(); got >= 2*storage.DefaultSegmentSize {
		t.Errorf("%d log bytes retained of %d appended behind an open reader, want under two segments",
			got, dev.Stats().BytesAppended)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}
