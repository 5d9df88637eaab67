package crashtest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"stableheap/internal/faultfs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/chaos_golden.txt from this build's sweeps")

const goldenFile = "testdata/chaos_golden.txt"

// goldenLegs are the seed-deterministic chaos legs, one per kind and
// chassis option, over a slice of CI's seed ranges. Concurrent is absent:
// its mutators are goroutine-scheduled, so its matrix is not a function of
// the seed.
var goldenLegs = []struct {
	name string
	sc   Scenario
	from int64
	n    int
}{
	{"default+midgc", Scenario{Steps: 30, Crashes: 3, MidGC: true}, 0, 12},
	{"default", Scenario{Steps: 25, Crashes: 2}, 1000, 6},
	{"nursery", Scenario{Steps: 25, Crashes: 3, Kind: Nursery}, 3000, 8},
	{"stable-conc", Scenario{Steps: 25, Crashes: 3, Kind: StableConc}, 4000, 8},
	{"2pc", Scenario{Steps: 12, Crashes: 4, Kind: TwoPC}, 6000, 8},
}

// TestChaosMatrixGolden pins the verdict matrix of every deterministic
// kind: per seed, the verdict list, the recovery retries and the
// injector's counters are hashed and compared with the checked-in digest.
// A refactor of the harness (or of anything under it) that changes which
// byte a planned fault hits, or how a round is classified, fails here
// instead of in a hand-run diff of shchaos -json. A deliberate change
// regenerates the file: go test ./internal/crashtest -run
// ChaosMatrixGolden -update.
func TestChaosMatrixGolden(t *testing.T) {
	var got bytes.Buffer
	for _, leg := range goldenLegs {
		rep := Sweep(leg.sc, leg.from, leg.n)
		for _, f := range rep.Failures {
			t.Errorf("%s: %s", leg.name, f)
		}
		h := sha256.New()
		for _, res := range rep.Results {
			fmt.Fprintf(h, "%d %v %d %+v\n", res.Seed, res.Verdicts, res.Retries, res.Faults)
		}
		fmt.Fprintf(&got, "%s %x\n", leg.name, h.Sum(nil))
	}
	if *updateGolden {
		if err := os.WriteFile(goldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("chaos matrix moved (leg, digest):\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}

// TestChaosFaultClassesFire: over the golden legs' seeds, every fault
// class the injector counts fires at least once. The devices' own checks
// are the only detection, so with TestChaosMatrixGolden's zero violations
// this says each class was injected and then caught or harmless — not
// that a class quietly stopped firing.
func TestChaosFaultClassesFire(t *testing.T) {
	var sum faultfs.Stats
	total := reflect.ValueOf(&sum).Elem()
	for _, leg := range goldenLegs {
		for _, res := range Sweep(leg.sc, leg.from, leg.n).Results {
			got := reflect.ValueOf(res.Faults)
			for i := 0; i < got.NumField(); i++ {
				total.Field(i).SetInt(total.Field(i).Int() + got.Field(i).Int())
			}
		}
	}
	for i := 0; i < total.NumField(); i++ {
		if total.Field(i).Int() == 0 {
			t.Errorf("no %s over the golden legs' seeds: %+v", total.Type().Field(i).Name, sum)
		}
	}
}
