package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"stableheap"
	"stableheap/internal/workload"
)

// The burst every crash-recover cycle runs between its checkpoint and its
// crash. It is fixed, so every cycle of either heap leaves the same log to
// recover from.
const (
	crTransfers    = 2000
	crUpdateEvery  = 10 // an UpdateT2 after every 10th transfer: 200 per burst
	crReplaceEvery = 20 // a ReplaceComposite after every 20th: 100 per burst
	crScanSteps    = 8  // StepStable calls after StartStableCollection
)

func crashRecoverSpec(large bool) *loadSpec {
	s := &loadSpec{
		name:        "crash-recover/small",
		stableWords: 1 << 20,
		bank:        &bankShape{slot: 1, accounts: 1024, fanout: 128},
		oo7:         &oo7Shape{slot: 2, cfg: workload.OO7Config{Assemblies: 8, Composites: 8, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}},
	}
	if large {
		s.name = "crash-recover/large"
		s.ballast = &oo7Shape{slot: 3, cfg: workload.OO7Config{Assemblies: 32, Composites: 32, AtomsPerComp: 20, DocWords: 16, ConnPerAtom: 3}}
	}
	return s
}

// crHeap is one of the two heaps with the driver's model of its bank.
type crHeap struct {
	*loadHeap
	model []uint64
	src   *splitmix
	rng   *rand.Rand
}

// crCycle is what one checkpoint-burst-crash-recover cycle measured.
type crCycle struct {
	rec      recSample
	latUs    []float64 // latency of every committed burst operation
	seconds  float64   // burst wall time
	attempts int64
	failed   int64
	d        delta // the heap's counters across the burst
}

func newCRHeap(large bool, dir string, seed int64, k *track) (*crHeap, error) {
	lh, err := crashRecoverSpec(large).setup(dir, seed, k)
	if err != nil {
		return nil, err
	}
	c := &crHeap{loadHeap: lh, model: make([]uint64, lh.spec.bank.accounts), src: &splitmix{s: uint64(seed)}}
	c.rng = rand.New(c.src)
	for i := range c.model {
		c.model[i] = bankInitial
	}
	return c, nil
}

// op runs one burst operation with the usual retry rule and records it.
func (c *crHeap) op(cy *crCycle, k *track, kind opKind, traced bool, fn func() error) {
	k.startOp(traced)
	seed := c.src.s
	t0 := k.tr.now()
	_, err := withRetries(func() error {
		c.src.s = seed
		return fn()
	})
	t1 := k.tr.now()
	if traced {
		k.spans = append(k.spans, span{kind: spanKind(kind), op: k.op, start: t0, end: t1, sampled: k.children})
	}
	cy.attempts++
	if err != nil {
		cy.failed++
		return
	}
	cy.latUs = append(cy.latUs, float64(t1-t0)/1e3)
}

// cycle runs one checkpoint, burst, mid-collection crash, timed recovery
// and verification. A non-nil error is a failed verification (or a
// recovery that did not complete).
func (c *crHeap) cycle(k *track, traced bool) (crCycle, error) {
	var cy crCycle
	b, o := c.spec.bank, c.spec.oo7
	c.h.Checkpoint()
	before := readCounters(c.h)
	start := time.Now()
	for i := 1; i <= crTransfers; i++ {
		from, to := b.pickPair(c.rng)
		failedBefore := cy.failed
		c.op(&cy, k, opTransfer, traced, func() error { return b.transfer(c.h, k, from, to, 1) })
		if cy.failed == failedBefore {
			c.model[from]--
			c.model[to]++
		}
		if i%crUpdateEvery == 0 {
			c.op(&cy, k, opUpdate, traced, func() error { return o.updateT2(c.h, k, c.rng.Intn(o.cfg.Assemblies), c.rng) })
		}
		if i%crReplaceEvery == 0 {
			c.op(&cy, k, opReplace, traced, func() error { return o.replaceComposite(c.h, k, c.rng) })
		}
	}
	cy.seconds = time.Since(start).Seconds()
	cy.d = diff(readCounters(c.h), before)

	// Crash in the middle of a stable collection, with one transfer in
	// flight.
	c.h.StartStableCollection()
	for i := 0; i < crScanSteps; i++ {
		c.h.StepStable()
	}
	from, to := b.pickPair(c.rng)
	if _, err := b.transferOpen(c.h, nil, from, to, 1); err != nil {
		return cy, fmt.Errorf("in-flight transfer: %w", err)
	}
	f, t := b.pickPair(c.rng)
	h2, rec, err := crashRecover(c.h, c.cfg, k, func(h *stableheap.Heap) error { return b.transfer(h, nil, f, t, 1) })
	if h2 != nil {
		c.reattach(h2)
	}
	if err != nil {
		return cy, err
	}
	cy.rec = rec
	c.model[f]--
	c.model[t]++

	// Every acknowledged balance, and with it the absence of the
	// in-flight transfer; then the invariants of every structure.
	got, err := b.allBalances(c.h)
	if err != nil {
		return cy, fmt.Errorf("read balances: %w", err)
	}
	for i, v := range got {
		if v != c.model[i] {
			return cy, fmt.Errorf("%s: account %d holds %d after recovery, acknowledged %d", c.spec.name, i, v, c.model[i])
		}
	}
	if err := c.verify(); err != nil {
		return cy, fmt.Errorf("%s after recovery: %w", c.spec.name, err)
	}
	return cy, nil
}

// allBalances reads every account in one read-only transaction.
func (b bankShape) allBalances(h *stableheap.Heap) ([]uint64, error) {
	x := begin(h, nil)
	defer x.Abort()
	out := make([]uint64, b.accounts)
	for i := range out {
		r, err := b.account(x, i)
		if err != nil {
			return nil, err
		}
		if out[i], err = x.Data(r, 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runCrashRecover alternates cycles on the small and the large heap until
// the measuring time is used up.
func runCrashRecover(o runOpts) *workloadResult {
	res := newResult("crash-recover", o)
	tr := newTracer(1)
	k := tr.tracks[0]

	// Set-up: both heaps, o.setups times; the last pair is kept.
	var heaps [2]*crHeap
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		for j, large := range []bool{false, true} {
			h, err := newCRHeap(large, fmt.Sprintf("%s/setup%d-%d", o.dir, i, j), o.seed+int64(j), k)
			if err != nil {
				return res.fatal(err)
			}
			heaps[j] = h
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < o.setups-1 {
			heaps[0].h.Close()
			heaps[1].h.Close()
		}
	}

	var cycles [2][]crCycle // all cycles, by heap
	var rates [2][]float64  // burst commits per second, by traced or not
	var total delta
	var lat []float64
	var commits float64
	// At least one pair of cycles, however short the run. The per-layer
	// pass records spans in every other cycle, the heaps taking turns, so
	// that one pair already holds a traced and an untraced burst.
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		for j, h := range heaps {
			traced := o.trace && (pair+j)%2 == 1
			cy, err := h.cycle(k, traced)
			res.Attempted += cy.attempts + 1
			res.Failed += cy.failed
			if err != nil {
				res.Failed++
				res.Errors = append(res.Errors, err.Error())
				return res.fatal(nil)
			}
			cycles[j] = append(cycles[j], cy)
			n := float64(len(cy.latUs))
			idx := 0
			if traced {
				idx = 1
			}
			rates[idx] = append(rates[idx], n/cy.seconds)
			if !traced {
				lat = append(lat, cy.latUs...)
				total.add(cy.d)
				commits += n
			}
		}
	}

	// Clean shutdown of both; the large heap's directory is the one whose
	// space is reported.
	var space int64
	for _, h := range heaps {
		var err error
		if space, err = h.shutdown(k); err != nil {
			return res.fatal(err)
		}
	}

	recs := func(j int) []recSample {
		out := make([]recSample, len(cycles[j]))
		for i, cy := range cycles[j] {
			out[i] = cy.rec
		}
		return out
	}
	small, large := recs(0), recs(1)
	sort.Float64s(lat)
	sizeRatio := ratio(recoverMs(large), recoverMs(small))
	wall := func(ms metricSet, prefix string) {
		ms.setN(prefix+"commit_tps", "tx/s", median(rates[0]), len(rates[0]))
		ms.setN(prefix+"commit_p50_us", "us", percentile(lat, 50), len(lat))
		ms.setN(prefix+"commit_p99_us", "us", percentile(lat, 99), len(lat))
		ms.setN(prefix+"commit_p999_us", "us", percentile(lat, 99.9), len(lat))
		ms.setN(prefix+"recover_ms", "ms", recoverMs(large), len(large))
		ms.set(prefix+"space_amp", "ratio", ratio(float64(space), float64(heaps[1].spec.liveBytes())))
	}
	if !o.trace {
		e := res.EndToEnd
		e.setN("setup_s", "s", median(setupS), len(setupS))
		e.set("fsyncs_per_commit", "1/tx", ratio(total.fsyncs(), total.commits()))
		e.set("log_bytes_per_commit", "B", total.logBytesPerCommit())
		wall(e, "")
		e.set("recover_size_ratio", "ratio", sizeRatio)
		e.set("failed_share", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
		return res
	}
	p := res.PerLayer
	layerCounters(p, total, commits)
	layerSpans(p, tr.analyse())
	layerRecovery(p, "recovery.", large)
	layerRecovery(p, "recovery.small_", small)
	p.set("recovery.size_ratio", "ratio", sizeRatio)
	p.set("tx.abort_ratio", "ratio", 0) // one client: nothing to conflict with
	p.set("obs.trace_overhead", "ratio", 1-ratio(median(rates[1]), median(rates[0])))
	wall(p, "client.")
	res.tr = tr
	return res
}
