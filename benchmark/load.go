package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stableheap"
	"stableheap/internal/obs"
	"stableheap/internal/workload"
)

// clients is the number of closed-loop client goroutines. It is fixed at
// the core count of the box the bounds were taken on: callers of an
// embedded heap each wait for their own commit, so a closed loop is the
// honest model, and more clients than cores would measure the Go
// scheduler.
const clients = 2

// maxRetries is how often an operation that met ErrConflict is tried
// again; its latency runs from the first attempt.
const maxRetries = 3

// withRetries runs op until it returns anything but ErrConflict, at most
// 1 + maxRetries times, and reports how often it retried. It sleeps 200 µs
// per attempt made before each retry, as an application would: a deadlock
// victim that retries at once re-takes its read lock before the surviving
// transaction has woken up, re-forms the cycle and, being the youngest,
// loses again.
func withRetries(op func() error) (retries int, err error) {
	for {
		err = op()
		if !errors.Is(err, stableheap.ErrConflict) || retries == maxRetries {
			return retries, err
		}
		retries++
		time.Sleep(time.Duration(retries) * 200 * time.Microsecond)
	}
}

// opKind is one kind of client operation; the values index spanKind's
// root kinds.
type opKind uint8

const (
	opTransfer opKind = iota
	opUpdate
	opReplace
	opRead
	numOps
)

// splitmix is a 64-bit generator small enough to re-seed for every
// operation, so that a retried operation repeats its arguments and the
// k-th operation of a client depends only on (seed, client, k).
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (r *splitmix) Int63() int64 { return int64(r.Uint64() >> 1) }
func (r *splitmix) Seed(s int64) { r.s = uint64(s) }

// plannedOp is one entry of a client's operation sequence.
type plannedOp struct {
	kind opKind
	seed uint64 // seeds the generator the operation draws its arguments from
}

// planner yields a client's operation sequence.
type planner struct {
	seq   splitmix
	mix   [numOps]int // relative share of each kind of operation
	total int
}

func newPlanner(seed int64, client int, mix [numOps]int) *planner {
	p := &planner{mix: mix}
	for _, share := range mix {
		p.total += share
	}
	p.seq.s = uint64(seed)*0x9e3779b97f4a7c15 + uint64(client+1)*0xd1342543de82ef95
	p.seq.Uint64()
	return p
}

func (p *planner) next() plannedOp {
	roll := int(p.seq.Uint64() % uint64(p.total))
	op := plannedOp{seed: p.seq.Uint64()}
	for k := opKind(0); k < numOps; k++ {
		if roll < p.mix[k] {
			op.kind = k
			break
		}
		roll -= p.mix[k]
	}
	return op
}

// loadSpec describes a throughput workload: a heap, its data, a mix of
// operations and a checkpoint cadence.
type loadSpec struct {
	name        string
	stableWords int
	volWords    int // 0 keeps the default
	cachePages  int // vm cache bound, 0 = unbounded (the default)
	filePages   int // filestore cache bound
	bank        *bankShape
	oo7         *oo7Shape
	ballast     *oo7Shape // a module that is built and verified but never operated on
	mix         [numOps]int
	ckptEvery   int64 // commits between Checkpoint()+TruncateLog() calls
}

const bankInitial = 1000

// config is the shipped configuration with only the directory, sizes,
// cache bounds, root count and lock wait set.
func (s *loadSpec) config(dir string) stableheap.Config {
	cfg := stableheap.DefaultConfig()
	cfg.Dir = dir
	cfg.StableWords = s.stableWords
	if s.volWords != 0 {
		cfg.VolatileWords = s.volWords
	}
	cfg.CachePages = s.cachePages
	cfg.FileCachePages = s.filePages
	if s.filePages == 0 {
		// "Unbounded" for the file layer, which has no such setting:
		// every page of both semispaces fits.
		cfg.FileCachePages = 2*s.stableWords*8/cfg.PageSize + 4096
	}
	cfg.NumRoots = 8
	cfg.LockWait = 50 * time.Millisecond
	return cfg
}

// liveBytes is the user data the workload keeps live: pointer and data
// fields of every object, 8 bytes each, without object headers.
func (s *loadSpec) liveBytes() int64 {
	var w int64
	if s.bank != nil {
		dirs := 1 + (s.bank.accounts+s.bank.fanout-1)/s.bank.fanout
		w += int64(s.bank.accounts + dirs*s.bank.fanout)
	}
	for _, o := range []*oo7Shape{s.oo7, s.ballast} {
		if o != nil {
			w += o.payloadWords()
		}
	}
	return w * 8
}

// loadHeap is an open heap with the workload's data built in it.
type loadHeap struct {
	spec    *loadSpec
	cfg     stableheap.Config
	h       *stableheap.Heap
	bank    *workload.Bank
	oo7     *workload.OO7
	ballast *workload.OO7
}

// setup opens a fresh heap under dir and builds the data. It ends with
// CollectVolatile and Checkpoint: the first moves every newly stable
// object into the stable area (lazy set-up that would otherwise run
// inside the measured window, and the work-around for seed defect (b) in
// README.md), the second bounds the first recovery.
func (s *loadSpec) setup(dir string, seed int64, k *track) (*loadHeap, error) {
	lh := &loadHeap{spec: s, cfg: s.config(dir)}
	var err error
	k.lifecycle(spOpenDir, func() { lh.h, err = stableheap.OpenDir(lh.cfg) })
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	if s.bank != nil {
		lh.bank, err = workload.NewBank(lh.h, s.bank.slot, s.bank.accounts, s.bank.fanout, bankInitial)
		if err != nil {
			return nil, fmt.Errorf("build bank: %w", err)
		}
	}
	if s.oo7 != nil {
		lh.oo7, err = workload.BuildOO7(lh.h, s.oo7.slot, s.oo7.cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, fmt.Errorf("build oo7: %w", err)
		}
	}
	if s.ballast != nil {
		lh.ballast, err = workload.BuildOO7(lh.h, s.ballast.slot, s.ballast.cfg, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return nil, fmt.Errorf("build ballast: %w", err)
		}
	}
	if _, err := lh.h.CollectVolatile(); err != nil {
		return nil, fmt.Errorf("post-build collection: %w", err)
	}
	lh.h.Checkpoint()
	return lh, nil
}

// verify checks the workload's invariants on the open heap.
func (lh *loadHeap) verify() error {
	if lh.bank != nil {
		want := uint64(lh.spec.bank.accounts) * bankInitial
		got, err := lh.bank.Total()
		if err != nil {
			return fmt.Errorf("bank total: %w", err)
		}
		if got != want {
			return fmt.Errorf("bank total %d, want %d", got, want)
		}
	}
	for _, o := range []*workload.OO7{lh.oo7, lh.ballast} {
		if o != nil {
			if err := o.Check(); err != nil {
				return fmt.Errorf("oo7 check: %w", err)
			}
		}
	}
	return nil
}

// run performs one planned operation once.
func (lh *loadHeap) run(op plannedOp, k *track, src *splitmix, rng *rand.Rand) error {
	src.s = op.seed
	switch op.kind {
	case opTransfer:
		from, to := lh.spec.bank.pickPair(rng)
		return lh.spec.bank.transfer(lh.h, k, from, to, 1)
	case opUpdate:
		return lh.spec.oo7.updateT2(lh.h, k, rng.Intn(lh.spec.oo7.cfg.Assemblies), rng)
	case opReplace:
		return lh.spec.oo7.replaceComposite(lh.h, k, rng)
	default:
		n, err := lh.spec.oo7.readAssembly(lh.h, k, rng)
		if err == nil && n != lh.spec.oo7.cfg.Composites*lh.spec.oo7.cfg.AtomsPerComp {
			err = fmt.Errorf("read %d atomic parts of an assembly", n)
		}
		return err
	}
}

// sample is one finished operation.
type sample struct {
	kind    opKind
	slice   int8 // -1 during warm-up
	failed  bool
	retries uint8
	end     int64 // ns since the tracer base
	ns      int64 // latency from the first attempt
}

// window is the timing of a run: a warm-up, then a measured interval cut
// into slices. With alternate set, odd slices record spans and even ones
// do not, so one run yields paired traced and untraced rates.
type window struct {
	warm, length time.Duration
	slices       int
	alternate    bool
}

func (w window) sliceOf(sinceStart time.Duration) int {
	t := sinceStart - w.warm
	if t < 0 {
		return -1
	}
	s := int(int64(t) * int64(w.slices) / int64(w.length))
	if s >= w.slices {
		s = w.slices - 1
	}
	return s
}

func (w window) sliceSeconds() float64 { return w.length.Seconds() / float64(w.slices) }

// counters is what the driver reads from the heap's own metrics.
type counters struct {
	m                  obs.Snapshot
	txB, gcB, trB, bkB int64 // log bytes by record class
}

func readCounters(h *stableheap.Heap) counters {
	c := counters{m: h.Metrics()}
	c.txB, c.gcB, c.trB, c.bkB = h.Internal().Log().VolumeByClass()
	return c
}

// loadRun is the raw outcome of one window.
type loadRun struct {
	win      window
	samples  [][]sample // per client
	before   counters   // at the end of the warm-up
	after    counters   // at the end of the window
	firstErr error      // first error that was not a conflict
}

// drive runs the closed-loop clients for one window and returns when all
// of them have stopped.
func (lh *loadHeap) drive(tr *tracer, seed int64, w window) *loadRun {
	run := &loadRun{win: w, samples: make([][]sample, clients)}
	var commits atomic.Int64
	var errOnce sync.Once
	start := tr.now()
	total := w.warm + w.length
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := tr.tracks[c]
			plan := newPlanner(seed, c, lh.spec.mix)
			src := &splitmix{}
			rng := rand.New(src)
			nextCkpt := lh.spec.ckptEvery
			out := make([]sample, 0, 1<<16)
			for {
				t0 := tr.now()
				since := time.Duration(t0 - start)
				if since >= total {
					break
				}
				slice := w.sliceOf(since)
				op := plan.next()
				k.startOp(w.alternate && slice >= 0 && slice%2 == 1)
				retries, err := withRetries(func() error { return lh.run(op, k, src, rng) })
				t1 := tr.now()
				if k.traced {
					k.spans = append(k.spans, span{kind: spanKind(op.kind), op: k.op, start: t0, end: t1, sampled: k.children})
				}
				if err != nil && !errors.Is(err, stableheap.ErrConflict) {
					errOnce.Do(func() { run.firstErr = fmt.Errorf("client %d op %d (%s): %w", c, k.op, spanNames[op.kind], err) })
				}
				out = append(out, sample{kind: op.kind, slice: int8(w.sliceOf(time.Duration(t1 - start))),
					failed: err != nil, retries: uint8(retries), end: t1, ns: t1 - t0})
				if err == nil && op.kind != opRead {
					commits.Add(1)
				}
				if c == 0 && commits.Load() >= nextCkpt {
					k.lifecycle(spCheckpoint, func() { lh.h.Checkpoint() })
					k.lifecycle(spTruncate, lh.h.TruncateLog)
					nextCkpt += lh.spec.ckptEvery
				}
			}
			run.samples[c] = out
		}(c)
	}
	time.Sleep(w.warm - time.Duration(tr.now()-start))
	run.before = readCounters(lh.h)
	time.Sleep(total - time.Duration(tr.now()-start))
	run.after = readCounters(lh.h)
	wg.Wait()
	return run
}

// latencyStat is a percentile pair with its sample count.
type latencyStat struct {
	p50, p99, p999 float64 // µs
	n              int
}

// sliceStats summarises the samples selected by keep: the rate is the
// median of the per-slice rates, and each percentile is the median of the
// per-slice percentiles, which one slow fdatasync on a shared disk cannot
// move the way it moves a percentile pooled over the window. p999 is
// pooled, as a diagnostic. only selects slices (nil keeps all).
func (r *loadRun) sliceStats(keep func(sample) bool, only func(slice int) bool) (rate float64, lat latencyStat) {
	per := make([][]float64, r.win.slices)
	var pooled []float64
	for _, cs := range r.samples {
		for _, s := range cs {
			if s.slice < 0 || s.failed || !keep(s) || (only != nil && !only(int(s.slice))) {
				continue
			}
			us := float64(s.ns) / 1e3
			per[s.slice] = append(per[s.slice], us)
			pooled = append(pooled, us)
		}
	}
	var rates, p50s, p99s []float64
	for i, xs := range per {
		if only != nil && !only(i) {
			continue
		}
		sort.Float64s(xs)
		rates = append(rates, float64(len(xs))/r.win.sliceSeconds())
		if len(xs) > 0 {
			p50s = append(p50s, percentile(xs, 50))
			p99s = append(p99s, percentile(xs, 99))
		}
	}
	sort.Float64s(pooled)
	return median(rates), latencyStat{p50: median(p50s), p99: median(p99s), p999: percentile(pooled, 99.9), n: len(pooled)}
}

func isUpdate(s sample) bool { return s.kind != opRead }
func isRead(s sample) bool   { return s.kind == opRead }
func anyOp(sample) bool      { return true }

// tally counts measured operations, failures and retries.
func (r *loadRun) tally() (attempted, failed, retried, updates int64, maxGapMs float64) {
	var ends []int64
	for _, cs := range r.samples {
		for _, s := range cs {
			if s.slice < 0 {
				continue
			}
			attempted++
			if s.failed {
				failed++
			}
			retried += int64(s.retries)
			if s.kind != opRead {
				updates++
				if !s.failed {
					ends = append(ends, s.end)
				}
			}
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	for i := 1; i < len(ends); i++ {
		if g := float64(ends[i]-ends[i-1]) / 1e6; g > maxGapMs {
			maxGapMs = g
		}
	}
	return
}
