// Command queue builds a durable work queue on the stable heap — the
// uniform storage model at work: enqueue and dequeue are ordinary pointer
// operations on ordinary objects; durability comes solely from reaching a
// stable root at commit. Producers and consumers run as concurrent
// goroutines under group commit; the machine then dies twice — once
// normally (disk survives) and once totally (media failure, rebuilt from
// the log archive) — and the queue's exactly-once accounting holds both
// times.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"stableheap"
)

// Queue layout: root slot 0 → queue header object
//
//	header: ptr[0]=head ptr[1]=tail, data[0]=enqueued data[1]=dequeued
//	node:   ptr[0]=next,             data[0]=job id
const (
	slotQueue = 0
	typeHdr   = 10
	typeNode  = 11
)

func enqueue(h *stableheap.Heap, job uint64) error {
	tx := h.Begin()
	hdr, err := tx.Root(slotQueue)
	if err != nil {
		tx.Abort()
		return err
	}
	node, err := tx.Alloc(typeNode, 1, 1)
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.SetData(node, 0, job); err != nil {
		tx.Abort()
		return err
	}
	tail, err := tx.Ptr(hdr, 1)
	if err != nil {
		tx.Abort()
		return err
	}
	if tail == nil {
		if err := tx.SetPtr(hdr, 0, node); err != nil {
			tx.Abort()
			return err
		}
	} else if err := tx.SetPtr(tail, 0, node); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.SetPtr(hdr, 1, node); err != nil {
		tx.Abort()
		return err
	}
	n, err := tx.Data(hdr, 0)
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.SetData(hdr, 0, n+1); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// dequeue removes the head job; ok is false when the queue is empty.
func dequeue(h *stableheap.Heap) (job uint64, ok bool, err error) {
	tx := h.Begin()
	abort := func(e error) (uint64, bool, error) { tx.Abort(); return 0, false, e }
	hdr, err := tx.Root(slotQueue)
	if err != nil {
		return abort(err)
	}
	head, err := tx.Ptr(hdr, 0)
	if err != nil {
		return abort(err)
	}
	if head == nil {
		tx.Abort()
		return 0, false, nil
	}
	job, err = tx.Data(head, 0)
	if err != nil {
		return abort(err)
	}
	next, err := tx.Ptr(head, 0)
	if err != nil {
		return abort(err)
	}
	if err := tx.SetPtr(hdr, 0, next); err != nil {
		return abort(err)
	}
	if next == nil {
		if err := tx.SetPtr(hdr, 1, nil); err != nil {
			return abort(err)
		}
	}
	n, err := tx.Data(hdr, 1)
	if err != nil {
		return abort(err)
	}
	if err := tx.SetData(hdr, 1, n+1); err != nil {
		return abort(err)
	}
	return job, true, tx.Commit()
}

func counters(h *stableheap.Heap) (enq, deq uint64) {
	tx := h.Begin()
	defer tx.Abort()
	hdr, err := tx.Root(slotQueue)
	if err != nil {
		log.Fatal(err)
	}
	enq, _ = tx.Data(hdr, 0)
	deq, _ = tx.Data(hdr, 1)
	return
}

func main() {
	cfg := stableheap.DefaultConfig()
	cfg.LockWait = 250 * time.Millisecond
	h := stableheap.Open(cfg)

	// Create the durable queue header.
	tx := h.Begin()
	hdr, err := tx.Alloc(typeHdr, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.SetRoot(slotQueue, hdr); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	// Concurrent producers and consumers. The queue header serializes
	// them (object-granular locks) — conflicts retry.
	const producers, jobsEach = 3, 40
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < jobsEach; j++ {
				for {
					err := enqueue(h, uint64(p*1000+j))
					if err == nil {
						break
					}
					if !errors.Is(err, stableheap.ErrConflict) {
						log.Fatal(err)
					}
				}
			}
		}(p)
	}
	consumed := 0
	var cmu sync.Mutex
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; {
				_, ok, err := dequeue(h)
				if errors.Is(err, stableheap.ErrConflict) {
					continue
				}
				if err != nil {
					log.Fatal(err)
				}
				if ok {
					cmu.Lock()
					consumed++
					cmu.Unlock()
					i++
				}
			}
		}()
	}
	wg.Wait()
	enq, deq := counters(h)
	fmt.Printf("produced %d, consumed %d (queue holds %d)\n", enq, deq, enq-deq)
	m := h.Metrics()
	batch := m.Histograms["wal_force_batch"]
	fmt.Printf("shared commit force: %d commits, %d forces (largest batch %d) — a single queue\n",
		m.Counters["tx_committed_total"], m.Counters["wal_forces_total"], batch.Max)
	fmt.Println("  (the queue header serializes committers, so batches stay small here;")
	fmt.Println("   see `shbench e13` for the shared force on independent objects)")

	// Crash 1: ordinary system failure.
	disk, logDev := h.Crash()
	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		log.Fatal(err)
	}
	enq2, deq2 := counters(h2)
	if enq2 != enq || deq2 != deq {
		log.Fatalf("accounting broken after crash: %d/%d vs %d/%d", enq2, deq2, enq, deq)
	}
	fmt.Printf("after crash+recover: %d produced, %d consumed — exactly-once accounting holds\n", enq2, deq2)

	// Drain a few more, then total media failure: the disk is destroyed
	// and the heap rebuilt from the log alone.
	for i := 0; i < 5; i++ {
		if _, _, err := dequeue(h2); err != nil && !errors.Is(err, stableheap.ErrConflict) {
			log.Fatal(err)
		}
	}
	enq3, deq3 := counters(h2)
	_, logOnly := h2.Crash()
	h3, err := stableheap.RecoverFromLog(cfg, logOnly)
	if err != nil {
		log.Fatal(err)
	}
	enq4, deq4 := counters(h3)
	if enq4 != enq3 || deq4 != deq3 {
		log.Fatalf("media recovery broke accounting: %d/%d vs %d/%d", enq4, deq4, enq3, deq3)
	}
	fmt.Printf("after TOTAL media failure (rebuilt from the log archive): %d produced, %d consumed — still exact\n", enq4, deq4)
}
