package crashtest

import (
	"reflect"
	"testing"
)

// TestChaosOverFilesNoViolations runs the chaos sweep with the heap on
// real files: the fault injector wraps the directory backing unchanged,
// and the same detectability contract must hold — no seed may ever
// recover into a state that fails the model audit.
func TestChaosOverFilesNoViolations(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	rep := Sweep(Scenario{Steps: 30, Crashes: 3, MidGC: true, Dir: t.TempDir()}, 0, seeds)
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	total := 0
	for _, c := range rep.Matrix {
		total += c
	}
	if total == 0 {
		t.Fatal("sweep produced no verdicts at all")
	}
	t.Logf("verdict matrix over files: %v", rep.MatrixMap())
}

// TestChaosFilesMatchMemory: the same seed must produce the identical
// verdict sequence and fault counters whether the wrapped backing is memory
// or a directory. The faults land in the backing's bytes and every crash
// reopens the devices from them, so this holds only if the two backings
// read back the same bytes — and the file layer's crash model (a completed
// write is in the OS, the user-space log tail is lost) is observably the
// in-memory one.
func TestChaosFilesMatchMemory(t *testing.T) {
	sc := Scenario{Steps: 30, Crashes: 3, MidGC: true}
	fsc := sc
	fsc.Dir = t.TempDir()
	for _, seed := range []int64{1, 7, 42} {
		mem := RunSeed(sc, seed)
		file := RunSeed(fsc, seed)
		if !reflect.DeepEqual(mem.Verdicts, file.Verdicts) {
			t.Fatalf("seed %d: verdicts diverge: memory %v vs files %v\nmem: %s\nfile: %s",
				seed, mem.Verdicts, file.Verdicts, mem.Failure, file.Failure)
		}
		if mem.Faults != file.Faults {
			t.Fatalf("seed %d: fault counters diverge: %+v vs %+v", seed, mem.Faults, file.Faults)
		}
		if mem.Retries != file.Retries {
			t.Fatalf("seed %d: retries diverge: %d vs %d", seed, mem.Retries, file.Retries)
		}
	}
}
