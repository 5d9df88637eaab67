// Command quickstart shows the stable heap's core promise in a dozen
// lines: allocate objects, make them reachable from a stable root, commit
// — then lose the machine and get exactly the committed state back.
package main

import (
	"fmt"
	"log"

	"stableheap"
)

func main() {
	cfg := stableheap.DefaultConfig()
	h := stableheap.Open(cfg)

	// A transaction builds a small linked list and publishes it.
	tx := h.Begin()
	var head *stableheap.Ref
	for i := 3; i >= 1; i-- {
		node, err := tx.Alloc(1 /*typeID*/, 1 /*ptrs*/, 1 /*data*/)
		if err != nil {
			log.Fatal(err)
		}
		must(tx.SetData(node, 0, uint64(i*100)))
		must(tx.SetPtr(node, 0, head))
		head = node
	}
	// Everything above is volatile until this store makes it reachable
	// from a stable root and the transaction commits: at commit the
	// stability tracker logs the objects' initial values — they are now
	// durable.
	must(tx.SetRoot(0, head))
	must(tx.Commit())
	fmt.Println("committed a 3-node list under stable root 0")

	// A second transaction's work is aborted: no trace survives.
	tx2 := h.Begin()
	r, _ := tx2.Root(0)
	must(tx2.SetData(r, 0, 999999))
	must(tx2.Abort())
	fmt.Println("aborted an update (value restored in place)")

	// Power failure. Main memory, active transactions and the unforced
	// log tail are gone; the disk and stable log survive.
	disk, logDev := h.Crash()
	fmt.Println("crash!")

	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		log.Fatal(err)
	}
	tx3 := h2.Begin()
	defer tx3.Abort()
	node, err := tx3.Root(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("recovered list:")
	for node != nil {
		v, err := tx3.Data(node, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf(" %d", v)
		if node, err = tx3.Ptr(node, 0); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()

	res, ls := h2.LastRecovery(), h2.Log().Device().Stats()
	fmt.Printf("recovery stats: %d redo records scanned, %d losers rolled back\n",
		res.RedoScanned, len(res.Losers))
	fmt.Printf("log: %d appends, %d synchronous forces\n", ls.Appends, ls.Forces)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
