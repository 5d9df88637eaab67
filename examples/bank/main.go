// Command bank runs the classic transactional-recovery acid test on the
// stable heap: a set of accounts, a stream of random transfers, a crash in
// the middle of the stream, and an audit proving the total balance is
// exactly what it was — no lost or phantom money — while garbage
// collection runs underneath the whole time.
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

	const accounts, initial = 64, 10_000
	bank, err := workload.NewBank(h, 0, accounts, 8, initial)
	if err != nil {
		log.Fatal(err)
	}
	want := uint64(accounts * initial)
	fmt.Printf("created %d accounts, total balance %d\n", accounts, want)

	rng := rand.New(rand.NewSource(2026))
	committed, err := bank.RunMix(rng, 500, 250)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran 500 transfers (%d committed)\n", committed)

	// Checkpoint mid-stream (cheap: one record, no synchronous writes).
	h.Checkpoint()

	more, err := bank.RunMix(rng, 500, 250)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran 500 more transfers (%d committed)\n", more)

	// Crash with a transfer's worth of state potentially anywhere: page
	// cache, volatile log tail, mid-flight structures.
	disk, logDev := h.Crash()
	fmt.Println("crash!")

	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		log.Fatal(err)
	}
	res := h2.LastRecovery()
	fmt.Printf("recovered: redo from LSN %d (%d records), %d losers rolled back\n",
		res.RedoStart, res.RedoScanned, len(res.Losers))

	bank.Reattach(h2)
	total, err := bank.Total()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit: total balance = %d (expected %d)\n", total, want)
	if total != want {
		log.Fatal("MONEY WAS CREATED OR DESTROYED — recovery bug")
	}
	fmt.Println("conservation holds: every committed transfer is durable, every interrupted one is gone")

	vs, gs := h2.VGCStats(), h2.GCStats()
	fmt.Printf("collections while banking: %d volatile, %d stable; %d newly stable objects moved\n",
		vs.Collections, gs.Collections, vs.MovedObjs)
}
