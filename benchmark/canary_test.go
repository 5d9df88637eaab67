package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"stableheap"
	"stableheap/internal/workload"
)

// The canaries reproduce the seed defects the benchmark works around
// (README.md, "Seed defects"). Each logs whether its defect is still
// present and passes either way: when one reports "fixed", a benchmark-only
// follow-up drops the work-around and the canary.

// canary runs fn, turning a panic into an error.
func canary(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return fn()
}

// Defect (a): RecoverDir over files with the automatic redo worker count
// fails at GOMAXPROCS ≥ 2.
func TestCanaryParallelRedoOverFiles(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS ≥ 2")
	}
	if raceEnabled {
		t.Skip("the defect is a data race: under -race the detector reports it and fails the test whatever the canary says")
	}
	spec := crashRecoverSpec(false)
	lh, err := spec.setup(filepath.Join(t.TempDir(), "heap"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(&splitmix{s: 1})
	for i := 0; i < 500; i++ {
		from, to := spec.bank.pickPair(rng)
		if err := spec.bank.transfer(lh.h, nil, from, to, 1); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := spec.oo7.replaceComposite(lh.h, nil, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	lh.h.Crash()
	err = canary(func() error {
		h, err := stableheap.RecoverDir(lh.cfg) // RecoveryWorkers 0: automatic
		if err != nil {
			return err
		}
		lh.reattach(h)
		defer h.Close()
		return lh.verify()
	})
	if err != nil {
		t.Logf("seed defect (a) still present: %v", err)
	} else {
		t.Log("seed defect (a) fixed — drop the RecoveryWorkers=1 pin in crashRecover")
	}
}

// Defect (b): a default-config in-memory OO7 module 16×16×6×4 built with
// seed 7 by one goroutine fails Check right after the second nursery minor
// collection, unless CollectVolatile ran after the build.
func TestCanaryNurseryMinorAfterBuild(t *testing.T) {
	err := canary(func() error {
		h := stableheap.Open(stableheap.DefaultConfig())
		rng := rand.New(rand.NewSource(7))
		o, err := workload.BuildOO7(h, 0, workload.OO7Config{Assemblies: 16, Composites: 16, AtomsPerComp: 6, DocWords: 4, ConnPerAtom: 2}, rng)
		if err != nil {
			return err
		}
		for i := 0; i < 20000; i++ {
			if err := o.ReplaceComposite(rng); err != nil {
				return fmt.Errorf("replace %d: %w", i, err)
			}
			if minors := h.Metrics().Counter("vgc_nursery_minor_total"); minors >= 2 {
				if err := o.Check(); err != nil {
					return fmt.Errorf("after replace %d and %d minors: %w", i, minors, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Logf("seed defect (b) still present: %v", err)
	} else {
		t.Log("seed defect (b) fixed — set-up no longer needs CollectVolatile for correctness (it still moves lazy work out of the window)")
	}
}

// Defect (c): after two concurrent clients ran oo7-churn's mix, recovering
// the log they wrote fails. No workload does that (crash-recover's bursts
// have one client), so nothing works around it; the canary keeps the
// reproduction.
func TestCanaryRecoveryAfterConcurrentChurn(t *testing.T) {
	spec := loadSpecs[1]
	tr := newTracer(clients + 1)
	lh, err := spec.setup(filepath.Join(t.TempDir(), "heap"), 1, tr.tracks[clients])
	if err != nil {
		t.Fatal(err)
	}
	if run := lh.drive(tr, 1, window{length: 2e9, slices: 2}); run.firstErr != nil {
		t.Fatal(run.firstErr)
	}
	h2, _, err := crashRecover(lh.h, lh.cfg, nil, func(h *stableheap.Heap) error {
		lh.reattach(h)
		return lh.verify()
	})
	if h2 != nil {
		defer h2.Close()
	}
	if err != nil {
		t.Logf("seed defect (c) still present: %v", err)
	} else {
		t.Log("seed defect (c) did not show this time (it shows in about two runs of three)")
	}
}
