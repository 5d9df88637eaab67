package crashtest

import (
	"reflect"
	"testing"
)

// TestChaos2PCSweepNoViolations is the distributed-atomicity acceptance
// sweep: 24 seeds × 4 crash rounds, each round freezing a cross-partition
// commit at a seed-chosen 2PC protocol state and crashing a seed-chosen
// subset (cluster, coordinator, single partition). Zero violations means
// every global transaction stayed all-or-nothing, every acknowledged
// commit survived, and no prepared branch was orphaned.
func TestChaos2PCSweepNoViolations(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	rep := Sweep(Scenario{Kind: TwoPC, Steps: 12, Crashes: 4}, 0, seeds)
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	if got := rep.Matrix[Clean]; got != seeds*4 {
		t.Fatalf("clean rounds = %d, want %d (matrix %v)", got, seeds*4, rep.MatrixMap())
	}
	for _, res := range rep.Results {
		if res.Audited != 4*twoPCSlots {
			t.Fatalf("seed %d: %d balances audited over 4 rounds, want %d", res.Seed, res.Audited, 4*twoPCSlots)
		}
	}
	t.Logf("verdict matrix: %v", rep.MatrixMap())
}

// TestChaos2PCOverFiles runs the protocol explorer over real files: the
// coordinator's decision log and every partition live in a filestore, so
// the forced-decision durability boundary crosses actual fsyncs.
func TestChaos2PCOverFiles(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	rep := Sweep(Scenario{Kind: TwoPC, Steps: 8, Crashes: 3, Dir: t.TempDir()}, 100, seeds)
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	if got := rep.Matrix[Clean]; got != seeds*3 {
		t.Fatalf("clean rounds = %d, want %d (matrix %v)", got, seeds*3, rep.MatrixMap())
	}
}

// TestChaos2PCDeterministicReplay pins the reproducibility contract for
// the protocol explorer: a seed's crash points, subsets and verdicts
// replay bit-identically.
func TestChaos2PCDeterministicReplay(t *testing.T) {
	sc := Scenario{Kind: TwoPC, Steps: 10, Crashes: 4}
	for _, seed := range []int64{3, 17} {
		a := RunSeed(sc, seed)
		b := RunSeed(sc, seed)
		if !reflect.DeepEqual(a.Verdicts, b.Verdicts) {
			t.Fatalf("seed %d: verdicts differ: %v vs %v", seed, a.Verdicts, b.Verdicts)
		}
		if a.Failure != b.Failure {
			t.Fatalf("seed %d: failures differ: %q vs %q", seed, a.Failure, b.Failure)
		}
	}
}
