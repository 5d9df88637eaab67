package core

import (
	"sync"
	"testing"
)

// TestOwnedStoreConcurrentMetrics races the readers of an owned store
// against its owners. Committers track new objects (exclusive, so the
// store is owned) and update their holders (shared), a collector goroutine
// runs nursery minors and checkpoints, and a metrics reader snapshots the
// heap and the store's counters throughout. The page cache holds eight
// pages, so eviction and write-back run inside owned sections. Under -race
// this is the check that nothing reaches the store past the stop latch;
// afterwards every holder must carry its last committed list.
func TestOwnedStoreConcurrentMetrics(t *testing.T) {
	cfg := concCfg()
	cfg.CachePages = 8
	hp := openMem(cfg)
	defer hp.Close()

	const workers, rounds, nodes = 3, 40, 3
	tr := hp.Begin()
	for w := 0; w < workers; w++ {
		holder, err := tr.Alloc(2, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetRoot(w, holder); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tr)

	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the metrics reader
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			hp.Metrics()
		}
	}()
	errs := make(chan error, workers+1)
	go func() { // the collector
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := hp.CollectNursery(); err != nil {
				errs <- err
				return
			}
			hp.Checkpoint()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				if err := ownedRound(hp, w, r, nodes); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	bg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	tr = hp.Begin()
	defer tr.Abort()
	for w := 0; w < workers; w++ {
		holder, err := tr.Root(w)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tr.Data(holder, 0); err != nil || v != rounds {
			t.Fatalf("holder %d: data %d (%v), want %d", w, v, err, rounds)
		}
		node, err := tr.Ptr(holder, 0)
		for i := 0; i < nodes; i++ {
			if err != nil || node == nil {
				t.Fatalf("holder %d: node %d missing (%v)", w, i, err)
			}
			if v, err := tr.Data(node, 0); err != nil || v != uint64(rounds*nodes+i) {
				t.Fatalf("holder %d node %d: data %d (%v), want %d", w, i, v, err, rounds*nodes+i)
			}
			node, err = tr.Ptr(node, 0)
		}
	}
	m := hp.Metrics()
	for _, name := range []string{"cache_evictions_total", "vgc_nursery_minor_total", "checkpoint_taken_total", "track_objects_total"} {
		if m.Counter(name) == 0 {
			t.Errorf("%s is 0: the race did not engage", name)
		}
	}
}

// ownedRound hangs a fresh list of n nodes (values r*n … r*n+n-1) off
// holder w in one transaction and stamps the holder with r: the commit
// tracks the list, so it stops the heap.
func ownedRound(hp *Heap, w, r, n int) error {
	tr := hp.Begin()
	err := func() error {
		holder, err := tr.Root(w)
		if err != nil {
			return err
		}
		var head *Ref
		for i := n - 1; i >= 0; i-- {
			node, err := tr.Alloc(1, 1, 1)
			if err != nil {
				return err
			}
			if err := tr.SetData(node, 0, uint64(r*n+i)); err != nil {
				return err
			}
			if err := tr.SetPtr(node, 0, head); err != nil {
				return err
			}
			head = node
		}
		if err := tr.SetPtr(holder, 0, head); err != nil {
			return err
		}
		return tr.SetData(holder, 0, uint64(r))
	}()
	if err != nil {
		tr.Abort()
		return err
	}
	return tr.Commit()
}
