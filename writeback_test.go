package stableheap_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"stableheap"
	"stableheap/internal/workload"
)

// cleanQuantumPages mirrors the core's page-cleaner quantum: the most
// owed pages one commit writes back.
const cleanQuantumPages = 32

// TestNoConstraintForceInSteadyState: two committers run oo7-churn's mix
// (60 % ReplaceComposite, 40 % UpdateT2) over its module while one of them
// checkpoints every 64 commits, through at least three stable collections
// and three checkpoints. Page write-back rides the commits' forces: no
// write-back forces the log, and the pages written while the heap is
// stopped stay within a cleaner quantum per collection, well below what a
// collection leaves to write.
func TestNoConstraintForceInSteadyState(t *testing.T) {
	cfg := stableheap.DefaultConfig()
	cfg.StableWords = 96 << 10
	cfg.VolatileWords = 64 << 10
	h := stableheap.Open(cfg)
	defer h.Close()
	rng := rand.New(rand.NewSource(57))
	o, err := workload.BuildOO7(h, 2, workload.OO7Config{Assemblies: 16, Composites: 16, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	h.Checkpoint() // settles what the set-up still owes
	before := h.Metrics()
	delta := func(m stableheap.Metrics, name string) int64 { return m.Counter(name) - before.Counter(name) }
	var (
		mu      sync.Mutex
		commits int
		done    bool
		wg      sync.WaitGroup
		errs    = make(chan error, 2)
	)
	deadline := time.Now().Add(60 * time.Second)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				mu.Lock()
				stop := done
				mu.Unlock()
				if stop {
					return
				}
				var err error
				if rng.Intn(10) < 6 {
					err = o.ReplaceComposite(rng)
				} else {
					err = o.UpdateT2(rng)
				}
				if errors.Is(err, stableheap.ErrConflict) {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				commits++
				ckpt := c == 0 && commits%64 == 0
				mu.Unlock()
				if ckpt {
					h.Checkpoint()
					h.TruncateLog()
				}
				m := h.Metrics()
				if c == 0 && (delta(m, "gc_collections_total") >= 4 && delta(m, "checkpoint_taken_total") >= 3 || time.Now().After(deadline)) {
					mu.Lock()
					done = true
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := h.Metrics()
	collections, checkpoints := delta(m, "gc_collections_total")-1, delta(m, "checkpoint_taken_total")
	if collections < 3 || checkpoints < 3 {
		t.Fatalf("%d stable collections finished and %d checkpoints taken in %d commits, want ≥ 3 each", collections, checkpoints, commits)
	}
	if got := delta(m, "wal_constraint_forces_total"); got != 0 {
		t.Errorf("write-back forced the log %d times over %d commits", got, commits)
	}
	owed := delta(m, "gc_end_flushes_total") / collections
	if owed <= cleanQuantumPages {
		t.Fatalf("a collection owes %d pages on average; the bound below needs more than a quantum", owed)
	}
	if stops := delta(m, "cache_stop_writes_total"); stops > cleanQuantumPages*collections {
		t.Errorf("%d pages written with the heap stopped over %d collections (each owing %d), want ≤ %d per collection", stops, collections, owed, cleanQuantumPages)
	}
	t.Logf("%d commits, %d collections (%d pages owed each), %d checkpoints, %d pages cleaned, %d written stopped",
		commits, collections, owed, checkpoints, delta(m, "cache_cleaned_pages_total"), delta(m, "cache_stop_writes_total"))
}

// BenchmarkStableFinishDir times ROADMAP finding 1's stop on real files: an
// OO7 module of 32·k assemblies × 32 composites, built over OpenDir with
// DefaultConfig(), then one incremental stable collection stepped by
// StepStable to its end, at k = 1, 4 and 16. It reports the finishing
// step (finish-ms), the longest step before it (max-step-ms), the pages
// written while the heap was stopped during the finishing step
// (stop-writes) and the pages the collection left owed to the cleaner
// (owed-pages). Run it with -benchtime 1x: each iteration builds a module.
func BenchmarkStableFinishDir(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			shape := workload.OO7Config{Assemblies: 32 * k, Composites: 32, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}
			var finish, maxStep time.Duration
			var stopWrites, owed int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := stableheap.DefaultConfig()
				cfg.Dir = b.TempDir()
				cfg.StableWords = k << 20
				h, err := stableheap.OpenDir(cfg)
				if err != nil {
					b.Fatal(err)
				}
				buildModule(b, h, shape)
				before := h.Metrics()
				h.StartStableCollection()
				b.StartTimer()
				for {
					writes := h.Metrics().Counter("cache_stop_writes_total")
					start := time.Now()
					more := h.StepStable()
					d := time.Since(start)
					if !more {
						finish += d
						stopWrites += h.Metrics().Counter("cache_stop_writes_total") - writes
						break
					}
					maxStep = max(maxStep, d)
				}
				b.StopTimer()
				owed += h.Metrics().Counter("gc_end_flushes_total") - before.Counter("gc_end_flushes_total")
				h.Close()
				os.RemoveAll(cfg.Dir)
				b.StartTimer()
			}
			n := float64(b.N)
			b.ReportMetric(float64(finish.Microseconds())/1e3/n, "finish-ms")
			b.ReportMetric(float64(maxStep.Microseconds())/1e3, "max-step-ms")
			b.ReportMetric(float64(stopWrites)/n, "stop-writes")
			b.ReportMetric(float64(owed)/n, "owed-pages")
		})
	}
}
