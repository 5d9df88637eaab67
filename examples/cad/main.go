// Command cad plays the paper's motivating scenario (Ch. 1): an
// interactive computer-aided-design session over a large persistent design
// tree. The designer edits continuously — including hitting undo — while
// the atomic incremental collector reorganizes the stable heap underneath,
// and the pauses the designer experiences stay bounded by single
// page-scans rather than whole-heap traversals.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"stableheap"
	"stableheap/internal/workload"
)

func main() {
	cfg := stableheap.DefaultConfig()
	h := stableheap.Open(cfg)

	rng := rand.New(rand.NewSource(7))
	tree := workload.CADConfig{Depth: 4, Fanout: 4, Leaf: 8}
	ct, err := workload.BuildCAD(h, 0, tree, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built design tree: depth %d, fanout %d, %d leaf features\n",
		tree.Depth, tree.Fanout, tree.Leaves())

	// Move the design into the stable area and force one full
	// reorganization so later sessions run against relocated objects.
	h.CollectVolatile()
	h.CollectStable()

	// The editing day: sessions interleave with an in-flight incremental
	// collection; ~25 % of sessions end in undo (abort).
	h.StartStableCollection()
	commits, aborts := 0, 0
	for i := 0; i < 300; i++ {
		ok, err := ct.EditSession(rng, 0.25)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			commits++
		} else {
			aborts++
		}
		if i%10 == 0 {
			if err := ct.ReplaceSubtree(rng); err != nil {
				log.Fatal(err)
			}
		}
		h.StepStable() // the collector's incremental quantum
	}
	for h.StepStable() {
	}
	fmt.Printf("editing day: %d sessions committed, %d undone\n", commits, aborts)

	if n, err := ct.CountLeaves(); err != nil || n != tree.Leaves() {
		log.Fatalf("design corrupted: %d leaves, err=%v", n, err)
	}
	fmt.Println("design tree intact after collections and undos")

	gcs := h.GCStats()
	fmt.Printf("stable collections: %d (copied %d objects, %d pages scanned)\n",
		gcs.Collections, gcs.CopiedObjs, gcs.ScannedPages)
	if gcs.Flip.Count > 0 {
		fmt.Printf("pause profile: flip max %v; scan-step p99 %v / max %v over %d steps; %d barrier traps (max %v)\n",
			gcs.Flip.MaxDur(), gcs.Step.QuantileDur(0.99), gcs.Step.MaxDur(), gcs.Step.Count,
			gcs.Trap.Count, gcs.Trap.MaxDur())
	}

	// End of day: crash instead of clean shutdown, then reopen tomorrow.
	disk, logDev := h.Crash()
	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		log.Fatal(err)
	}
	ct.Reattach(h2)
	if n, err := ct.CountLeaves(); err != nil || n != tree.Leaves() {
		log.Fatalf("design lost overnight: %d leaves, err=%v", n, err)
	}
	fmt.Println("overnight crash: the committed design reopened intact")
}
