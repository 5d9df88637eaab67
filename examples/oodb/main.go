// Command oodb drives an OO7-flavoured object-database workload — the
// paper's object-oriented-database audience — through the stable heap:
// build a module of assemblies, composite parts and atomic parts, run
// traversals and updates, replace whole composite subgraphs (creating
// garbage the collector reclaims and new objects the tracker stabilizes),
// and crash-recover the lot.
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
	rng := rand.New(rand.NewSource(77))

	oo7 := workload.OO7Config{
		Assemblies: 8, Composites: 6, AtomsPerComp: 10, DocWords: 8, ConnPerAtom: 3,
	}
	db, err := workload.BuildOO7(h, 0, oo7, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built OO7 module: %d objects (%d atomic parts)\n",
		oo7.Objects(), oo7.Assemblies*oo7.Composites*oo7.AtomsPerComp)

	n, err := db.TraverseT1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T1 traversal visited %d atomic parts\n", n)

	// The update mix: T2-style data updates plus structural churn.
	for i := 0; i < 60; i++ {
		if err := db.UpdateT2(rng); err != nil {
			log.Fatal(err)
		}
		if i%4 == 0 {
			if err := db.ReplaceComposite(rng); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("ran 60 T2 updates and 15 composite replacements")

	// Let both collectors do a full pass over the churned database.
	moved, err := h.CollectVolatile()
	if err != nil {
		log.Fatal(err)
	}
	h.CollectStable()
	if err := db.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collections done (%d newly stable objects moved); database intact\n", moved)

	m := h.Metrics()
	fmt.Printf("log volume: %d bytes over %d records; %d synchronous forces (one per commit)\n",
		m.Counter("wal_bytes_appended_total"), m.Counter("wal_appends_total"), m.Counter("wal_forces_total"))
	fmt.Printf("division at work: %d logged updates vs %d unlogged volatile writes\n",
		m.Counter("tx_updates_total"), m.Counter("tx_volatile_writes_total"))

	disk, logDev := h.Crash()
	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		log.Fatal(err)
	}
	db.Reattach(h2)
	if err := db.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("crash + recovery: full module traversal passes")
}
