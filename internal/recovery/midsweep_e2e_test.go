package recovery_test

// End-to-end regression for the mid-sweep scan-state bug: a sweep-emitted
// scan record named the page of the last slot it fixed, which — when an
// object spans a page boundary — lies AHEAD of the sweep. Analysis marked
// that page fully scanned, so after recovery it was left unprotected and
// the resumed sweep skipped its slots; un-fixed from-space pointers then
// surfaced as forwarding/zero descriptors once from-space was reused.
// Sweep records now convey completion via ScanPtr (the collector's
// markThrough rule); Full is reserved for trap scans, which do fix every
// slot on their page in one record.
//
// The scenario needs the full stack (bank workload → volatile collection →
// flip → one incremental step → crash), hence an external test package.

import (
	"math/rand"
	"testing"

	"stableheap"
	"stableheap/internal/workload"
)

func TestRecoverMidSweepScanState(t *testing.T) {
	cfg := stableheap.DefaultConfig()
	cfg.StableWords = 64 * 1024
	cfg.VolatileWords = 16 * 1024
	h := stableheap.Open(cfg)
	bank, err := workload.NewBank(h, 0, 128, 12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	if _, err := bank.RunMix(rng, 100, 50); err != nil {
		t.Fatal(err)
	}
	// First-ever volatile collection moves the whole bank into the stable
	// area; the flip then copies the root, and one step leaves the sweep
	// mid-page — with the last copied object spanning a page boundary, the
	// old encoding marked the wrong page scanned.
	if _, err := h.CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	h.StartStableCollection()
	h.StepStable()
	h.Internal().Log().ForceAll()
	disk, logDev := h.Crash()

	h2, err := stableheap.Recover(cfg, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Internal().StableCollector().Active() {
		t.Fatal("collection did not resume")
	}
	bank.Reattach(h2)
	total, err := bank.Total()
	if err != nil {
		t.Fatalf("total with resumed collection: %v", err)
	}
	if total != 128*1000 {
		t.Fatalf("total = %d, want %d", total, 128*1000)
	}
	// Finish the resumed collection and re-verify: no from-space pointer
	// may survive into the reused space.
	for h2.StepStable() {
	}
	if total, err = bank.Total(); err != nil || total != 128*1000 {
		t.Fatalf("after finishing collection: total=%d err=%v", total, err)
	}
}
